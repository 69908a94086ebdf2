package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"spacesim/internal/cluster"
	"spacesim/internal/core"
	"spacesim/internal/cosmo"
	"spacesim/internal/hpl"
	"spacesim/internal/key"
	"spacesim/internal/machine"
	"spacesim/internal/netsim"
	"spacesim/internal/npb"
	"spacesim/internal/pario"
	"spacesim/internal/perfmodel"
	"spacesim/internal/reliability"
	"spacesim/internal/sph"
	"spacesim/internal/vec"
)

// A row is one checked claim of the paper's evaluation: the paper's value,
// the reproduced one and the band it must fall in.
type row struct {
	id     string  // printed as "<exhibit>/<id>"; `ssbench <prefix>` selects by it
	paper  float64 // the value in the exhibit's source; NaN for a claim about shape
	lo, hi float64 // the band the reproduced value must fall in
	band   string  // the band as printed
	dev    bool    // a known deviation: computed and printed, never compared
	why    string  // the deviation's reason
	full   bool    // the paper's configuration is too large for -quick: skipped there
	what   string  // what is modeled and what is actually run
	get    func() float64
}

// An exhibit is one table, figure or section; its title names the source.
type exhibit struct {
	name, title string
	detail      string // printed under the rows: output that is not a number
	rows        []row
}

func near(id string, paper, tol float64, what string, get func() float64) row {
	return row{id: id, paper: paper, lo: paper * (1 - tol), hi: paper * (1 + tol), band: fmt.Sprintf("±%g%%", tol*100), what: what, get: get}
}

func shape(id string, lo, hi float64, what string, get func() float64) row {
	return row{id: id, paper: math.NaN(), lo: lo, hi: hi, band: "[" + num(lo) + ", " + num(hi) + "]", what: what, get: get}
}

func (r row) deviates(why string) row { r.dev, r.why, r.band = true, why, "—"; return r }

func (r row) fullSize(full bool) row { r.full = full; return r }

// check returns the row's verdict on its value v and whether the row holds.
func (r row) check(v float64) (string, bool) {
	switch {
	case r.dev:
		return "deviates: " + r.why, r.why != ""
	case v >= r.lo && v <= r.hi:
		return "ok", true
	}
	return "**out of band**", false
}

// render prints the rows whose ids start with prefix ("all": every row) as
// Markdown tables and reports whether any matched and whether all hold.
func render(w io.Writer, prefix string, quick bool) (matched, ok bool) {
	ok = true
	for _, e := range exhibits(quick) {
		var b strings.Builder
		last := ""
		for _, r := range e.rows {
			id := e.name + "/" + r.id
			if prefix != "all" && !strings.HasPrefix(id, prefix) {
				continue
			}
			v, verdict, good := math.NaN(), "skipped at -quick", true
			if !r.full || !quick {
				v = r.get()
				verdict, good = r.check(v)
			}
			ok = ok && good
			what := r.what
			if what == last {
				what = ""
			}
			last = r.what
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", id, num(r.paper), num(v), r.band, verdict, what)
		}
		if b.Len() == 0 {
			continue
		}
		matched = true
		fmt.Fprintf(w, "### %s\n\n| row | paper | reproduced | band | check | modeled / run |\n|---|---|---|---|---|---|\n%s", e.title, b.String())
		if e.detail != "" {
			fmt.Fprintf(w, "\n```text\n%s```\n", e.detail)
		}
		fmt.Fprintln(w)
	}
	return matched, ok
}

func num(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case math.Abs(v) >= 1e4:
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// slug turns a name from a paper table into an id part: "Intel P4" → "intel-p4".
func slug(s string) string {
	return strings.Join(strings.FieldsFunc(strings.ToLower(s), func(c rune) bool {
		return !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.')
	}), "-")
}

// truth is 1 for a claim that holds and 0 for one that does not.
func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fixed(v float64) func() float64 { return func() float64 { return v } }

// once returns f's result, computing it only on the first call with key.
func once[T any](memo map[string]any, key string, f func() T) T {
	if v, ok := memo[key]; ok {
		return v.(T)
	}
	v := f()
	memo[key] = v
	return v
}

// exhibits returns the registry at full or -quick size. Its rows share
// runs: Table 3 runs each kernel once, and Fig. 4 reads Table 4's.
func exhibits(quick bool) []exhibit {
	memo := map[string]any{}
	ssCluster := func() machine.Cluster { return machine.SpaceSimulator(netsim.ProfileLAM).WithObs(runObs) }
	size := func(n, q int) int {
		if quick {
			return q
		}
		return n
	}
	ss, loki := cluster.SpaceSimulatorBOM(), cluster.LokiBOM()
	ssNet, ssNetShare := ss.NetworkShare()
	spec, moore, tm, fig7 := perfmodel.SPEC(), cluster.Components(loki, ss, 6), cluster.TreecodeMoore(), pario.Fig7Run()
	net := netsim.MustNew(netsim.SpaceSimulatorTopology(), netsim.ProfileTCP)
	pic, locality := morton()
	install, nine := reliability.ExpectedCounts(294, 9)
	var s21 []row
	for _, c := range []reliability.Component{reliability.PowerSupply, reliability.DiskDrive, reliability.Motherboard, reliability.DRAMStick, reliability.EthernetNIC, reliability.Fan, reliability.SwitchPort} {
		const what = "expected failures under per-component rates calibrated to the paper's counts"
		if n, ok := reliability.PaperObserved.Install[c]; ok {
			s21 = append(s21, near("install/"+slug(string(c)), float64(n), 0.05, what, fixed(install[c])))
		}
		if n, ok := reliability.PaperObserved.NineMonths[c]; ok {
			s21 = append(s21, near("9mo/"+slug(string(c)), float64(n), 0.05, what, fixed(nine[c])))
		}
	}
	var table2, table5, table6 []row
	for _, w := range perfmodel.Table2Workloads() {
		for j, c := range []perfmodel.Config{perfmodel.SlowMem, perfmodel.SlowCPU, perfmodel.Overclock} {
			table2 = append(table2, near(slug(w.Name)+"/"+slug(c.Name), perfmodel.Table2Paper[w.Name][j], 0.1, "two-resource roofline (CPU clock, memory bandwidth) per workload; nothing is run", fixed(w.Ratio(c))))
		}
	}
	for i, c := range machine.Table5CPUs {
		const what = "per-CPU issue rate plus exposed sqrt/divide latency, calibrated per processor"
		table5 = append(table5, near(slug(c.Name)+"/libm", machine.Table5Paper[i][0], 0.01, what, fixed(c.KernelMflops(false))), near(slug(c.Name)+"/karp", machine.Table5Paper[i][1], 0.01, what, fixed(c.KernelMflops(true))))
	}
	for _, m := range machine.Table6Machines {
		table6 = append(table6, near(slug(m.Name), m.PaperMflopsPerProc, 0.01, "kernel rate × parallel efficiency per machine: a formula, nothing is run", fixed(m.MflopsPerProc())))
	}
	// Tables 3 and 4 hold the SS column (ASCI Q's is quoted, never modeled);
	// a failed verification reads NaN.
	npbRun := func(b npb.Benchmark, procs int, class string) npb.Result {
		return once(memo, fmt.Sprintf("%s/%d/%s", b, procs, class), func() npb.Result {
			res, err := npb.Run(b, ssCluster(), procs, class)
			if err != nil || !res.Verified {
				res.MopsTotal, res.MopsPerProc = math.NaN(), math.NaN()
			}
			return res
		})
	}
	mops := func(b npb.Benchmark, class string, procs int, paper, tol float64, what string) row {
		return near(string(b), paper, tol, what, func() float64 { return npbRun(b, procs, class).MopsTotal }).fullSize(procs > 64)
	}
	const c64 = "NPB miniature kernels on 64 virtual SS ranks, Mop/s by the virtual clock; densities fitted once to this column"
	const d256 = "the same kernels at class D on 256 ranks: a prediction of the class C fit"
	// Figures 4 and 5: per-processor Mop/s on p1 ranks over that on p0.
	scale := func(class string, b npb.Benchmark, p0, p1 int, lo, hi float64, what string) row {
		return shape(fmt.Sprintf("%s/%d-%d", b, p0, p1), lo, hi, what, func() float64 {
			return npbRun(b, p1, class).MopsPerProc / npbRun(b, p0, class).MopsPerProc
		}).fullSize(p1 > 64)
	}
	const flat = "per-processor rate ratio: a pseudo-application stays flat (its communication overlaps)"
	const falls = "per-processor rate ratio: a communication-bound kernel falls"
	// collapse is Fig. 8's run: |j_z| in six 15° bins from pole to equator,
	// nil when the core did not bounce.
	collapse := func() []float64 {
		return once(memo, "fig8", func() []float64 {
			s := sph.NewRotatingCollapse(sph.RotatingCollapseOptions{N: size(1500, 600), Omega: 0.3, PressureDeficit: 0.85, Seed: 3})
			s.SetObs(runObs)
			if _, bounced := s.RunUntilBounce(300); !bounced {
				return nil
			}
			return s.AngularMomentumByAngle(6)
		})
	}
	const sn = "SPH rotating collapse with FLD neutrinos, 1500 particles (-quick 600), run to bounce"
	const bom = "the paper's line items summed; nothing is run"
	const prod = "arithmetic of the production run's I/O and flop counts; nothing is run"
	const latency = "library profile: one-way time of a 1-byte message, per-message overhead included"
	const hplModel = "HPL model: DGEMM efficiency × peak less panel and broadcast time"
	return []exhibit{
		{"table1", "Table 1 — Space Simulator architecture and price (September 2002)", ss.Render(), []row{
			near("total-usd", 483855, 0.001, bom, fixed(ss.Total())),
			near("usd-per-node", 1646, 0.001, bom, fixed(ss.PerNode())),
			near("network-usd-per-node", 728, 0.001, bom, fixed(ssNet)),
			near("network-share", 0.44, 0.01, bom, fixed(ssNetShare)),
			near("peak-gflops-per-node", 5.06, 0.001, bom, fixed(ss.PeakFlopsPerNode/1e9)),
		}},
		{"s2.1", "§2.1 — Failures at installation and over nine months, 294 nodes", "", append(s21,
			shape("smart", 0.5, 1, "Monte-Carlo histories, seeds 1–100: mean share of disk failures SMART flagged (\"a majority\")", func() float64 {
				s := 0.0
				for seed := int64(1); seed <= 100; seed++ {
					s += reliability.Simulate(seed).SMARTPredictedFraction()
				}
				return s / 100
			}))},
		{"fig2", "Fig. 2 — NetPIPE bandwidth and latency (Mb/s, µs)", "", []row{
			near("tcp-peak", 779, 0.01, "library profile: bandwidth of an 8 MB message; nothing is run", fixed(netsim.ProfileTCP.Bandwidth(8<<20)/1e6)),
			near("latency/tcp", 79, 0.05, latency, fixed(netsim.ProfileTCP.TransferTime(1)*1e6)),
			near("latency/lam", 83, 0.05, latency, fixed(netsim.ProfileLAM.TransferTime(1)*1e6)),
			near("latency/mpich", 87, 0.05, latency, fixed(netsim.ProfileMPICH1.TransferTime(1)*1e6)),
		}},
		{"s3.1", "§3.1 — Switch backplane: concurrent flows across modules (Mb/s)", "", []row{
			near("cross-module", 6000, 0.05, "max-min fair share of 16→16 flows over the derated module backplane", fixed(net.AggregateBandwidth(net.Topo.CrossModuleFlows(0, 1))/1e6)),
			shape("hypercube-dim8", 0, 8000, "hypercube pairs 2^8 apart cross the 8 Gb/s trunk and stay under it", fixed(net.AggregateBandwidth(netsim.HypercubePairs(294, 8))/1e6)),
		}},
		{"table2", "Table 2 — Ratios to normal clocks under slow memory, slow CPU and overclock", "", table2},
		{"fig3", "Fig. 3 — Linpack on 288 processors (Gflop/s) and price/performance", "", []row{
			near("oct2002", 665.1, 0.03, hplModel, fixed(hpl.ModelGflops(hpl.October2002()))),
			near("apr2003", 757.1, 0.03, hplModel, fixed(hpl.ModelGflops(hpl.April2003()))),
			near("usd-per-mflops", 0.639, 0.03, "Table 1's price over the April 2003 model rate", fixed(ssCluster().DollarsPerMflops(hpl.ModelGflops(hpl.April2003())*1e9))),
			shape("lu-residual", 0, 16, "distributed LU, N=192 on 8 virtual ranks (-quick 96 on 4): scaled residual, which HPL passes under 16", func() float64 {
				res, err := hpl.RunParallel(ssCluster(), size(8, 4), size(192, 96), 16, 7)
				if err != nil {
					return math.NaN()
				}
				return res.Residual
			}),
		}},
		{"table3", "Table 3 — NAS Parallel Benchmarks class C on 64 processors (Mop/s)", "", []row{
			mops(npb.BT, "C", 64, 17032, 0.3, c64),
			mops(npb.SP, "C", 64, 7822, 0.3, c64),
			mops(npb.LU, "C", 64, 27942, 0.3, c64),
			mops(npb.CG, "C", 64, 3291, 0.3, c64).deviates("31% low: its halo sends queue on the sender's NIC one after another, and its exchange is a 7-point halo, not NPB CG's 2-D process-grid pattern (ROADMAP item 21)"),
			mops(npb.FT, "C", 64, 9860, 0.3, c64),
			mops(npb.IS, "C", 64, 232, 0.3, c64),
			near("FT-over-Q", 9860.0/7275, 0.1, "modeled SS FT over the paper's ASCI Q FT", func() float64 { return npbRun(npb.FT, 64, "C").MopsTotal / 7275 }).deviates("ASCI Q is not modeled, so the inversion (SS beats Q on FT) is not a reproduced result"),
		}},
		{"table4", "Table 4 — NAS Parallel Benchmarks class D on 256 processors (Mop/s)", "", []row{
			mops(npb.BT, "D", 256, 63044, 0.4, d256),
			mops(npb.SP, "D", 256, 29348, 0.4, d256),
			mops(npb.LU, "D", 256, 81472, 0.4, d256),
			mops(npb.CG, "D", 256, 4913, 0.4, d256).deviates("2.0× optimistic: the model's allreduce cost grows slower than the real code's latency-bound reductions at 256 ranks"),
			mops(npb.FT, "D", 256, 21995, 0.4, d256),
		}},
		{"fig4", "Fig. 4 — NPB class D scaling (per-processor Mop/s ratios)", "", []row{
			scale("D", npb.BT, 16, 64, 0.9, 1.1, flat),
			scale("D", npb.BT, 16, 256, 0.9, 1.1, flat),
			scale("D", npb.FT, 16, 256, 0, 0.9, falls),
			scale("D", npb.CG, 16, 256, 0, 0.9, falls),
		}},
		{"fig5", "Fig. 5 — NPB class C scaling (per-processor Mop/s ratios)", "", []row{
			scale("C", npb.BT, 4, 256, 0.9, 1.1, flat),
			scale("C", npb.LU, 16, 64, 1, math.Inf(1), "per-processor rate ratio: LU rises as the per-rank working set approaches cache"),
			scale("C", npb.FT, 4, 64, 0, 0.9, falls),
			scale("C", npb.CG, 4, 64, 0, 0.75, falls),
			scale("C", npb.CG, 4, 256, 0, 0.5, falls),
		}},
		{"s3.5", "§3.5 — SPEC CPU2000 price/performance", "", []row{
			near("usd-per-specfp", 1.20, 0.02, "node cost without network over the SPECfp surrogate, calibrated to Table 2", fixed(spec.DollarsPerSPECfp)),
			near("break-even-usd", 2500, 0.05, "price at which the fastest SPECfp system matches it", fixed(spec.BreakEvenPriceUSD)),
			shape("july-usd-per-specfp", 0, 1, "the same at the July 2003 node price (\"better than $1.00\")", fixed(spec.JulyDollarsPerSPECf)),
		}},
		{"table5", "Table 5 — Gravity micro-kernel Mflop/s, libm and Karp square root", "", table5},
		{"fig6", "Fig. 6 — Morton order through a centrally condensed particle set", pic, []row{
			shape("locality", 0, 0.5, "300 points: mean grid step between neighbours in key order over that in random order", fixed(locality)),
		}},
		{"table6", "Table 6 — Historical treecode performance (Mflop/s per processor)", "", append(table6,
			near("treecode", 623.9, 0.1, "the virtual-time treecode: cold sphere, 20000 bodies on 32 ranks (-quick 4000 on 8), one step", func() float64 {
				return core.Run(core.RunConfig{
					Cluster: ssCluster(), Procs: size(32, 8), Steps: 1,
					Opt: core.Options{Theta: 0.7, Eps: 0.01, DT: 1e-3},
				}, core.ColdSphere(rand.New(rand.NewSource(1)), size(20000, 4000), 1.0)).MflopsPerProc
			}).deviates("ROADMAP item 22's one-step ledger: of the 306.0 Mflop/s/proc gap the node charge (item 18) is worth 150.0, the network (item 15) 59.7, the two together 291.8"))},
		{"fig7", "§4.3 / Fig. 7 — The 134M-particle cosmology run", "", []row{
			near("io-avg-mbs", 417, 0.02, prod, fixed(fig7.AvgIORate()/1e6)),
			near("io-peak-gbs", 7, 0.05, prod, fixed(fig7.PeakIORate()/1e9)),
			near("gflops", 112, 0.05, prod, fixed(fig7.AvgFlops()/1e9)),
			shape("halos", 1, math.Inf(1), "Zel'dovich ICs, 16³ particles (-quick 8³) in 32 Mpc/h, 6 treecode steps on 8 ranks, FoF: halos of ≥ 10 particles", func() float64 { return cosmoHalos(ssCluster(), size(16, 8)) }).deviates("vacuum boundary and no Ewald sum; at demo size no halo of ≥ 10 particles has formed"),
		}},
		{"fig8", "§4.4 / Fig. 8 — Rotating core collapse", "", []row{
			shape("bounce", 1, 1, sn+": the core passes nuclear density and bounces", func() float64 { return truth(collapse() != nil) }),
			shape("j-monotone", 1, 1, "specific angular momentum in 15° bins rises from pole to equator", func() float64 {
				j := collapse()
				return truth(j != nil && sort.Float64sAreSorted(j))
			}),
			near("j-equator-over-pole", 100, 0.5, "the same, 75–90° bin over 0–15° bin", func() float64 {
				if j := collapse(); j != nil {
					return j[5] / j[0]
				}
				return math.NaN()
			}).deviates("solid-body rotation sets it: 29.0 at t = 0, 33–41 at bounce for 1500–24 000 particles and seeds 3–4, with no trend toward ~100 (sph TestFig8RatioTable)"),
		}},
		{"table7", "Table 7 — Loki architecture and price (September 1996)", loki.Render(), []row{
			near("total-usd", 51379, 0.001, bom, fixed(loki.Total())),
			near("usd-per-node", 3211, 0.001, bom, fixed(loki.PerNode())),
			near("peak-gflops-per-node", 0.2, 0.001, bom, fixed(loki.PeakFlopsPerNode/1e9)),
		}},
		{"s5", "§5 — Against Moore's law, 1996 to 2002", "", []row{
			near("disk-vs-moore", 7, 0.1, "$/GB of Table 7's disks over Table 1's, divided by the 16× of six Moore years", fixed(moore.DiskVsMoore)),
			near("ram-vs-moore", 2, 0.1, "$/MB of the two BOMs' memory, divided by 16×", fixed(moore.RAMVsMoore)),
			near("treecode-gain", 140, 0.02, "Table 6's SS over Loki treecode rate", fixed(tm.Improvement)),
			near("treecode-predicted", 150, 0.05, "the price ratio of the two BOMs × 16×", fixed(tm.MoorePrediction)),
		}},
	}
}

// morton draws Fig. 6, 300 condensed points lettered in Morton key order, and
// their mean grid step between key-order neighbours over generation order.
func morton() (pic string, locality float64) {
	type pt struct {
		k    key.K
		x, y int
	}
	rng := rand.New(rand.NewSource(2))
	var pts []pt
	for i := 0; i < 300; i++ {
		r, th := rng.ExpFloat64()*0.15, 2*math.Pi*rng.Float64()
		x, y := 0.5+r*math.Cos(th), 0.5+r*math.Sin(th)
		if x >= 0 && x < 1 && y >= 0 && y < 1 {
			pts = append(pts, pt{key.FromPosition(vec.V3{x, y, 0.5}, vec.V3{}, 1), int(x * 32), int(y * 32)})
		}
	}
	steps := func() (s float64) {
		for i := 1; i < len(pts); i++ {
			s += math.Abs(float64(pts[i].x-pts[i-1].x)) + math.Abs(float64(pts[i].y-pts[i-1].y))
		}
		return s
	}
	random := steps()
	sort.Slice(pts, func(i, j int) bool { return pts[i].k < pts[j].k })
	grid := []byte(strings.Repeat(strings.Repeat(".", 32)+"\n", 32))
	for i, q := range pts {
		grid[(31-q.y)*33+q.x] = byte('a' + i%26)
	}
	return string(grid) + "(letters advance along the Morton key order: nearby cells share letters)\n", steps() / random
}

// cosmoHalos runs Fig. 7's pipeline on gridN³ particles and counts halos.
func cosmoHalos(cl machine.Cluster, gridN int) float64 {
	ics := cosmo.GenerateICs(cosmo.EdS(), cosmo.ICOptions{GridN: gridN, BoxMpch: 32, AStart: 0.15, Seed: 9})
	res := core.Run(core.RunConfig{
		Cluster: cl, Procs: 8, Steps: 6, GatherBodies: true,
		Opt: core.Options{Theta: 0.7, Eps: 0.3, DT: 0.6},
	}, ics.Bodies)
	pos := make([]vec.V3, len(res.Bodies))
	mass := make([]float64, len(res.Bodies))
	for i, b := range res.Bodies {
		pos[i], mass[i] = b.Pos, b.Mass
	}
	return float64(len(cosmo.FoFGroups(pos, mass, 0.2*32/float64(gridN), 10)))
}
