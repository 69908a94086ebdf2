package ledger

import (
	"encoding/json"
	"math"
)

// Artifact kinds recognized by SniffKind.
const (
	KindAnalysis   = "analysis"   // ANALYSIS.json
	KindFaultsweep = "faultsweep" // FAULTSWEEP.json
	KindUnknown    = "unknown"
)

// SniffKind classifies artifact bytes by their top-level keys, so the ledger
// can extract headline metrics without importing the CLIs' report types.
func SniffKind(data []byte) string {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return KindUnknown
	}
	if _, ok := top["baseline_virtual_sec"]; ok {
		return KindFaultsweep
	}
	if _, ok := top["critical_path"]; ok {
		return KindAnalysis
	}
	return KindUnknown
}

// ExtractMetrics pulls the headline metrics out of a known artifact:
// virtual makespan, parallel efficiency, message latency, checkpoint
// overhead. The decode is generic (untyped JSON) so the ledger stays
// independent of the report structs; unknown or malformed artifacts yield
// an empty map.
func ExtractMetrics(data []byte) map[string]float64 {
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{}
	switch SniffKind(data) {
	case KindAnalysis:
		extractAnalysis(top, out)
	case KindFaultsweep:
		extractFaultsweep(top, out)
	}
	return out
}

func extractAnalysis(top map[string]any, out map[string]float64) {
	putNum(out, "makespan_sec", top["makespan_sec"])
	putNum(out, "parallel_efficiency", top["parallel_efficiency"])
	putNum(out, "idle_fraction", top["idle_fraction"])
	if hists, ok := top["histograms"].(map[string]any); ok {
		if lat, ok := hists["mp.msg.latency_sec"].(map[string]any); ok {
			putNum(out, "msg_latency_p99_sec", lat["p99"])
		}
	}
	if faults, ok := top["faults"].(map[string]any); ok {
		putNum(out, "checkpoint_overhead_sec", faults["checkpoint_sec"])
		putNum(out, "lost_virtual_sec", faults["lost_virtual_sec"])
	}
}

func extractFaultsweep(top map[string]any, out map[string]float64) {
	putNum(out, "makespan_sec", top["baseline_virtual_sec"])
	if entries, ok := top["entries"].([]any); ok {
		lost := 0.0
		for _, e := range entries {
			ent, ok := e.(map[string]any)
			if !ok {
				continue
			}
			// The K=1 cadence pays the full I/O cost — the sweep's
			// checkpoint-overhead headline.
			if num(ent["interval_steps"]) == 1 {
				putNum(out, "checkpoint_overhead_sec", ent["io_overhead_sec"])
			}
			lost = math.Max(lost, num(ent["lost_virtual_sec"]))
		}
		out["lost_virtual_sec"] = lost
	}
}

// ExtractProvenance reads the provenance block a ledgered writer stamps
// into its artifact (satellite of the same feature), letting diff -baseline
// key a bare NEW.json back to its comparable ledger records.
func ExtractProvenance(data []byte) (Provenance, bool) {
	var top struct {
		Provenance *Provenance `json:"provenance"`
	}
	if err := json.Unmarshal(data, &top); err != nil || top.Provenance == nil {
		return Provenance{}, false
	}
	return *top.Provenance, true
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

func putNum(out map[string]float64, name string, v any) {
	if f, ok := v.(float64); ok && f != 0 {
		out[name] = f
	}
}
