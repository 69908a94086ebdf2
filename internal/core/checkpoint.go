package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"spacesim/internal/mp"
	"spacesim/internal/pario"
	"spacesim/internal/vec"
)

// CheckpointConfig enables checkpoint–restart for a run: every Every steps
// each rank writes its local state (bodies + accelerations) as a pario
// stripe under Dir. The stripes are everything RunRecovered needs to roll a
// crashed run back to the last completed checkpoint and replay it
// bit-identically.
type CheckpointConfig struct {
	// Dir receives the stripe files (ck-<step>.<rank>).
	Dir string
	// Every is the checkpoint cadence in steps (disabled when <= 0). The
	// final step is never checkpointed — the run is already over.
	Every int
}

// ckFloatsPerBody is the serialized width of one body in a checkpoint
// stripe: position (3), velocity (3), acceleration (3), mass, decomposition
// work weight, and the ID bits.
const ckFloatsPerBody = 12

// encodeState serializes a rank's post-step state. The acceleration rides
// along because the leapfrog's opening half-kick of the next step reuses it;
// storing it (rather than re-evaluating on restore) is what makes recovery
// bit-identical.
func encodeState(local []Body, acc []vec.V3) []float64 {
	out := make([]float64, 0, len(local)*ckFloatsPerBody)
	for i := range local {
		b := &local[i]
		out = append(out,
			b.Pos[0], b.Pos[1], b.Pos[2],
			b.Vel[0], b.Vel[1], b.Vel[2],
			acc[i][0], acc[i][1], acc[i][2],
			b.Mass, b.Work,
			math.Float64frombits(uint64(b.ID)),
		)
	}
	return out
}

// decodeState is the inverse of encodeState, on a payload loadCheckpoint
// has checked to hold whole bodies. Morton keys are not stored: Decompose
// recomputes them from positions before they are read.
func decodeState(data []float64) ([]Body, []vec.V3) {
	n := len(data) / ckFloatsPerBody
	local := make([]Body, n)
	acc := make([]vec.V3, n)
	for i := 0; i < n; i++ {
		f := data[i*ckFloatsPerBody:]
		local[i] = Body{
			Pos:  vec.V3{f[0], f[1], f[2]},
			Vel:  vec.V3{f[3], f[4], f[5]},
			Mass: f[9],
			Work: f[10],
			ID:   int64(math.Float64bits(f[11])),
		}
		acc[i] = vec.V3{f[6], f[7], f[8]}
	}
	return local, acc
}

// ckName returns the stripe base name for a checkpoint at the given step;
// pario appends the rank suffix.
func ckName(step int) string { return fmt.Sprintf("ck-%06d", step) }

// ckPath returns the full stripe path for one rank's checkpoint.
func ckPath(dir string, step, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%04d", ckName(step), rank))
}

// ckEnergyName is the base name of the rank-0 energy sidecar stripe: the
// conservation diagnostics through the checkpointed step. The trailing 'E'
// keeps it out of FindCheckpoints' step parse. The sidecar makes a
// checkpoint set self-contained: a fresh process (the job server after a
// kill -9) can resume and still report the full, bit-identical energy
// history, which an in-process restart would have kept in memory.
func ckEnergyName(step int) string { return fmt.Sprintf("ck-%06dE", step) }

// ckEnergyPath returns the sidecar path for one checkpoint.
func ckEnergyPath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%04d", ckEnergyName(step), 0))
}

// energyFloats is the serialized width of one Energies record.
const energyFloats = 8

// encodeEnergies flattens an energy history for the sidecar stripe.
func encodeEnergies(hist []Energies) []float64 {
	out := make([]float64, 0, len(hist)*energyFloats)
	for _, e := range hist {
		out = append(out,
			e.Kinetic, e.Potential,
			e.Momentum[0], e.Momentum[1], e.Momentum[2],
			e.AngMom[0], e.AngMom[1], e.AngMom[2],
		)
	}
	return out
}

// decodeEnergies is the inverse of encodeEnergies.
func decodeEnergies(data []float64) ([]Energies, error) {
	if len(data)%energyFloats != 0 {
		return nil, fmt.Errorf("energy sidecar of %d floats is not a whole number of records", len(data))
	}
	hist := make([]Energies, len(data)/energyFloats)
	for i := range hist {
		f := data[i*energyFloats:]
		hist[i] = Energies{
			Kinetic:   f[0],
			Potential: f[1],
			Momentum:  vec.V3{f[2], f[3], f[4]},
			AngMom:    vec.V3{f[5], f[6], f[7]},
		}
	}
	return hist, nil
}

// writeCheckpoint writes one rank's stripe for the checkpoint at step,
// charging the virtual disk time, and corrupts it on disk when the rank's
// drive is dying. Rank 0 additionally writes the energy sidecar carrying
// hist (the diagnostics for steps 0..step).
func writeCheckpoint(r *mp.Rank, cp *CheckpointConfig, step int, local []Body, acc []vec.V3, hist []Energies, corrupt bool) {
	data := encodeState(local, acc)
	path, err := pario.WriteStripe(cp.Dir, ckName(step), r.ID(), data)
	if err != nil {
		panic(fmt.Sprintf("core: checkpoint write failed: %v", err))
	}
	r.ChargeDisk(float64(len(data) * 8))
	if r.ID() == 0 {
		edata := encodeEnergies(hist)
		if _, err := pario.WriteStripe(cp.Dir, ckEnergyName(step), 0, edata); err != nil {
			panic(fmt.Sprintf("core: energy sidecar write failed: %v", err))
		}
		r.ChargeDisk(float64(len(edata) * 8))
	}
	if corrupt {
		corruptStripe(path)
	}
}

// corruptStripe flips one payload byte in a written stripe — the injected
// disk fault. On an empty payload it flips the checksum instead; either way
// the CRC no longer matches.
func corruptStripe(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("core: corrupting stripe: %v", err))
	}
	off := 3 * 8 // first payload byte
	if off >= len(raw) {
		off = len(raw) - 1
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		panic(fmt.Sprintf("core: corrupting stripe: %v", err))
	}
}

// FindCheckpoints scans a checkpoint directory and returns the steps for
// which at least one stripe exists, ascending. Completeness and integrity
// are not checked here — loadCheckpoint does that per candidate.
func FindCheckpoints(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	seen := map[int]bool{}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ck-") {
			continue
		}
		dot := strings.IndexByte(name, '.')
		if dot < 0 {
			continue
		}
		step, err := strconv.Atoi(name[3:dot])
		if err != nil {
			continue
		}
		seen[step] = true
	}
	steps := make([]int, 0, len(seen))
	for s := range seen {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// errForeignSet marks a checkpoint set whose stripes verify but which
// cannot have been written by this run: more steps than the run has, a
// payload of partial bodies, or another body count (another rank count
// leaves bodies behind in the stripes not read). Like pario.ErrWrongRank it
// is a bug, not disk damage, so recovery stops instead of falling back.
var errForeignSet = errors.New("core: checkpoint set does not fit this run")

// loadCheckpoint reads and verifies every rank's stripe for one checkpoint,
// plus the rank-0 energy sidecar, for a run of nbodies bodies over nsteps
// steps. A missing or corrupt stripe fails the whole checkpoint (wrapped
// pario.ErrCorrupt where applicable) so the caller can fall back to an
// older one; pario.ErrWrongRank and errForeignSet are passed through.
func loadCheckpoint(dir string, step, nprocs, nbodies, nsteps int) ([][]float64, []Energies, error) {
	if step > nsteps {
		return nil, nil, fmt.Errorf("%w: %s is past the run's %d steps", errForeignSet, ckName(step), nsteps)
	}
	restore := make([][]float64, nprocs)
	total := 0
	for rank := 0; rank < nprocs; rank++ {
		data, err := pario.ReadStripe(ckPath(dir, step, rank), rank)
		if err != nil {
			return nil, nil, err
		}
		if len(data)%ckFloatsPerBody != 0 {
			return nil, nil, fmt.Errorf("%w: %s rank %d holds %d floats, not a whole number of bodies",
				errForeignSet, ckName(step), rank, len(data))
		}
		restore[rank] = data
		total += len(data) / ckFloatsPerBody
	}
	if total != nbodies {
		return nil, nil, fmt.Errorf("%w: %s holds %d bodies on %d ranks, the run has %d",
			errForeignSet, ckName(step), total, nprocs, nbodies)
	}
	eraw, err := pario.ReadStripe(ckEnergyPath(dir, step), 0)
	if err != nil {
		return nil, nil, err
	}
	hist, err := decodeEnergies(eraw)
	if err != nil {
		return nil, nil, err
	}
	if len(hist) != step+1 {
		return nil, nil, fmt.Errorf("energy sidecar at step %d carries %d records, want %d", step, len(hist), step+1)
	}
	return restore, hist, nil
}

// lastGoodCheckpoint walks the on-disk checkpoints newest-first and returns
// the segment that starts from the first one whose stripes (and energy
// sidecar) all verify, together with how many corrupt stripe sets were
// skipped on the way. A zero segment (nil restore) means the run starts
// from the initial conditions. A rank-mismatched stripe or a set another
// run wrote aborts with an error: that is never disk damage.
func lastGoodCheckpoint(dir string, nprocs, nbodies, nsteps int) (seg segment, corrupt int, err error) {
	steps := FindCheckpoints(dir)
	for i := len(steps) - 1; i >= 0; i-- {
		data, energies, lerr := loadCheckpoint(dir, steps[i], nprocs, nbodies, nsteps)
		if lerr == nil {
			return segment{startStep: steps[i], restore: data, energies: energies}, corrupt, nil
		}
		if errors.Is(lerr, pario.ErrWrongRank) || errors.Is(lerr, errForeignSet) {
			return segment{}, corrupt, lerr
		}
		if errors.Is(lerr, pario.ErrCorrupt) {
			corrupt++
		}
		// Missing stripes (a checkpoint interrupted by the crash) are
		// skipped silently: that checkpoint never completed.
	}
	return segment{}, corrupt, nil
}
