package experiments

import (
	"fmt"

	"dandelion/internal/arrivals"
	"dandelion/internal/autoscale"
	"dandelion/internal/faas"
	"dandelion/internal/isolation"
	"dandelion/internal/sim"
	"dandelion/internal/trace"
)

// Seed fixed across drivers for reproducibility.
const seed = 1

func mkDandelion(cfg faas.DandelionConfig) func(*sim.Engine) faas.Platform {
	return func(e *sim.Engine) faas.Platform { return faas.NewDandelion(e, cfg) }
}

func mkMicroVM(cfg faas.MicroVMConfig) func(*sim.Engine) faas.Platform {
	return func(e *sim.Engine) faas.Platform { return faas.NewMicroVM(e, cfg) }
}

func mkWT(cores int) func(*sim.Engine) faas.Platform {
	return func(e *sim.Engine) faas.Platform { return faas.NewWT(e, faas.Wasmtime(cores)) }
}

func mkHybrid(cfg faas.DHybridConfig) func(*sim.Engine) faas.Platform {
	return func(e *sim.Engine) faas.Platform { return faas.NewHybrid(e, cfg) }
}

// Table1 reproduces the sandbox-creation latency breakdown per backend
// (1x1 matmul on Morello).
func Table1() Table {
	t := Table{
		Title:  "Table 1: Dandelion cold-start latency breakdown [µs] (Morello profiles)",
		Header: []string{"Phase", "CHERI", "rWasm", "process", "KVM"},
	}
	ps := []isolation.CostProfile{
		isolation.MorelloCheri, isolation.MorelloRWasm,
		isolation.MorelloProcess, isolation.MorelloKVM,
	}
	row := func(name string, get func(isolation.CostProfile) float64) []string {
		cells := []string{name}
		for _, p := range ps {
			cells = append(cells, f0(get(p)))
		}
		return cells
	}
	t.Rows = append(t.Rows,
		row("Marshal requests", func(p isolation.CostProfile) float64 { return p.MarshalUS }),
		row("Load from disk", func(p isolation.CostProfile) float64 { return p.LoadUS }),
		row("Transfer input", func(p isolation.CostProfile) float64 { return p.TransferUS }),
		row("Execute function", func(p isolation.CostProfile) float64 { return p.ExecuteUS }),
		row("Get/send output", func(p isolation.CostProfile) float64 { return p.OutputUS }),
		row("Other", func(p isolation.CostProfile) float64 { return p.OtherUS }),
		row("Total", func(p isolation.CostProfile) float64 { return p.TotalUS() }),
	)
	// Cross-check with a measured unloaded run of the model.
	for _, name := range isolation.Names() {
		b, _ := isolation.New(name)
		lat := faas.UnloadedLatency(mkDandelion(faas.DandelionConfig{
			Cores: 4, Profile: b.Cost(),
		}), faas.MatMul1(), seed)
		t.Notes = append(t.Notes, fmt.Sprintf("measured unloaded %s: %.0f µs", name, lat*1000))
	}
	t.Notes = append(t.Notes, "x86 Linux 5.15 totals: rwasm 109, process 539, kvm 218 µs (§7.2)")
	return t
}

// Fig2 reproduces Firecracker's tail-latency sensitivity to the hot
// request ratio (128x128 matmul, p99.5 vs RPS).
func Fig2(quick bool) Table {
	t := Table{
		Title:  "Figure 2: FC 128x128 matmul p99.5 latency [ms] vs RPS by hot ratio",
		Header: []string{"Config", "RPS", "p99.5", "median", "cold%"},
	}
	rates := []float64{500, 1500, 2500}
	dur := 20.0
	if quick {
		rates = []float64{500, 1500}
		dur = 8
	}
	for _, snap := range []bool{false, true} {
		for _, hot := range []float64{0.95, 0.97, 0.99, 1.0} {
			cfg := faas.Firecracker(16, hot)
			label := "FC"
			if snap {
				cfg = faas.FirecrackerSnapshot(16, hot)
				label = "FC-snapshot"
			}
			pts := faas.Sweep(mkMicroVM(cfg), faas.MatMul128(), rates, dur, seed)
			for _, pt := range pts {
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%s %.0f%% hot", label, hot*100),
					f0(pt.RPS), f1(pt.Summary.P995), f1(pt.Summary.Median),
					f1(pt.ColdFraction * 100),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: any cold fraction > 0.5% pushes p99.5 to the boot latency (log scale)")
	return t
}

// Fig5 reproduces the sandbox-creation sweep: p99 vs RPS with 0% hot
// requests (1x1 matmul, Morello 4-core).
func Fig5(quick bool) Table {
	t := Table{
		Title:  "Figure 5: sandbox creation, p99 latency [ms] vs RPS (0% hot, 1x1 matmul)",
		Header: []string{"System", "RPS", "p99", "saturated"},
	}
	rates := []float64{50, 100, 500, 2000, 8000}
	dur := 5.0
	if quick {
		rates = []float64{50, 500, 4000}
		dur = 3
	}
	systems := []struct {
		name string
		mk   func(*sim.Engine) faas.Platform
	}{
		{"D cheri", mkDandelion(faas.DandelionConfig{Cores: 4, Profile: isolation.MorelloCheri})},
		{"D rwasm", mkDandelion(faas.DandelionConfig{Cores: 4, Profile: isolation.MorelloRWasm})},
		{"D process", mkDandelion(faas.DandelionConfig{Cores: 4, Profile: isolation.MorelloProcess})},
		{"D kvm", mkDandelion(faas.DandelionConfig{Cores: 4, Profile: isolation.MorelloKVM})},
		{"FC", mkMicroVM(faas.Firecracker(4, 0))},
		{"FC w/ snapshot", mkMicroVM(faas.FirecrackerSnapshot(4, 0))},
		{"gVisor", mkMicroVM(faas.GVisor(4, 0))},
		{"WT", mkWT(4)},
	}
	for _, s := range systems {
		pts := faas.Sweep(s.mk, faas.MatMul1(), rates, dur, seed)
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				s.name, f0(pt.RPS), f3(pt.Summary.P99),
				fmt.Sprintf("%v", pt.Saturated(0.03)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: Dandelion backends boot in 100s of µs; FC snapshot limited to ~120 RPS; FC full boot ~26 RPS")
	return t
}

// Fig6 reproduces the compute-function benchmark: median latency with
// p5/p95 (128x128 matmul, 16-core server).
func Fig6(quick bool) Table {
	t := Table{
		Title:  "Figure 6: 128x128 matmul on 16 cores, median [ms] (p5/p95)",
		Header: []string{"System", "RPS", "median", "p5", "p95", "saturated"},
	}
	rates := []float64{1000, 2000, 3000, 4500}
	dur := 10.0
	if quick {
		rates = []float64{1000, 3000}
		dur = 4
	}
	systems := []struct {
		name string
		mk   func(*sim.Engine) faas.Platform
	}{
		{"D KVM", mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true})},
		{"D process", mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86Process, Cached: true})},
		{"D rwasm", mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86RWasm, Cached: true})},
		{"FC (97% hot)", mkMicroVM(faas.Firecracker(16, 0.97))},
		{"FC snapshot (97% hot)", mkMicroVM(faas.FirecrackerSnapshot(16, 0.97))},
		{"WT", mkWT(16)},
	}
	for _, s := range systems {
		pts := faas.Sweep(s.mk, faas.MatMul128(), rates, dur, seed)
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				s.name, f0(pt.RPS), f2(pt.Summary.Median),
				f2(pt.Summary.P5), f2(pt.Summary.P95),
				fmt.Sprintf("%v", pt.Saturated(0.03)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: D-KVM peaks ~4800 RPS; WT saturates ~2600 from slower codegen; FC unstable past ~2800")
	return t
}

// FigPhases reproduces the §7.4 composition-overhead experiment:
// unloaded latency vs number of fetch+compute phases.
func FigPhases() Table {
	t := Table{
		Title:  "§7.4: composition overhead, unloaded latency [ms] vs phases",
		Header: []string{"Phases", "D KVM uncached", "D KVM cached", "FC hot", "FC cold snapshot", "WT"},
	}
	for _, phases := range []int{2, 4, 8, 16} {
		app := faas.FetchCompute(phases)
		row := []string{fmt.Sprintf("%d", phases)}
		row = append(row, f2(faas.UnloadedLatency(mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM}), app, seed)))
		row = append(row, f2(faas.UnloadedLatency(mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true}), app, seed)))
		row = append(row, f2(faas.UnloadedLatency(mkMicroVM(faas.Firecracker(16, 1)), app, seed)))
		row = append(row, f2(faas.UnloadedLatency(mkMicroVM(faas.FirecrackerSnapshot(16, 0)), app, seed)))
		row = append(row, f2(faas.UnloadedLatency(mkWT(16), app, seed)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: linear in phases; D uncached within ~17% of FC hot at 8 phases; 4.6x faster than FC cold at 16")
	return t
}

// Fig7 reproduces the compute/communication split experiment: Dandelion
// vs D-hybrid at several threads-per-core settings, for a compute-bound
// and an I/O-bound app.
func Fig7(quick bool) Table {
	t := Table{
		Title:  "Figure 7: Dandelion vs D-hybrid (tpc sweep), p99 [ms] by RPS",
		Header: []string{"App", "System", "RPS", "p99", "saturated"},
	}
	type system struct {
		name string
		mk   func(*sim.Engine) faas.Platform
	}
	systems := []system{
		{"Dandelion", mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, Balance: true})},
		{"D-hybrid tpc=3", mkHybrid(faas.DHybrid(16, 3, false))},
		{"D-hybrid tpc=4", mkHybrid(faas.DHybrid(16, 4, false))},
		{"D-hybrid tpc=5", mkHybrid(faas.DHybrid(16, 5, false))},
		{"D-hybrid tpc=1,pin", mkHybrid(faas.DHybrid(16, 1, true))},
	}
	apps := []struct {
		name  string
		app   faas.App
		rates []float64
	}{
		{"matmul", faas.MatMul128(), []float64{2000, 3500, 4500}},
		{"fetch+compute", faas.FetchCompute(4), []float64{1000, 1600, 2200}},
	}
	dur := 8.0
	if quick {
		dur = 3
		apps[0].rates = []float64{3500}
		apps[1].rates = []float64{1600}
	}
	for _, a := range apps {
		for _, s := range systems {
			pts := faas.Sweep(s.mk, a.app, a.rates, dur, seed)
			for _, pt := range pts {
				t.Rows = append(t.Rows, []string{
					a.name, s.name, f0(pt.RPS), f2(pt.Summary.P99),
					fmt.Sprintf("%v", pt.Saturated(0.03)),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: pinned tpc=1 wins matmul, tpc=5 wins fetch+compute; Dandelion's controller wins both")
	return t
}

// Fig8 reproduces the mixed-workload multiplexing experiment.
func Fig8(quick bool) Table {
	t := Table{
		Title:  "Figure 8: multiplexing compression (compute) + log processing (I/O), bursty load",
		Header: []string{"System", "App", "avg [ms]", "p99 [ms]", "rel.var %"},
	}
	apps := [2]faas.App{faas.ImageCompression(), faas.LogProcessing()}
	steps := 120
	if quick {
		steps = 40
	}
	patterns := [2]arrivals.Pattern{
		arrivals.Bursty(40, 140, steps, 25, 6),
		arrivals.Bursty(40, 180, steps, 18, 6),
	}
	systems := []struct {
		name string
		mk   func(*sim.Engine) faas.Platform
	}{
		{"Dandelion", mkDandelion(faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, Balance: true})},
		{"FC snapshot (97% hot)", mkMicroVM(faas.FirecrackerSnapshot(16, 0.97))},
		{"WT", mkWT(16)},
	}
	for _, s := range systems {
		res := faas.RunMultiplex(s.mk, apps, patterns, seed)
		for _, r := range res {
			t.Rows = append(t.Rows, []string{
				s.name, r.App, f1(r.Summary.Mean), f1(r.Summary.P99), f1(r.Summary.RelVarPct),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: Dandelion 18.2/27.9 ms avg with 1.3%/2.9% variance; FC 20.4/25.6 ms with 389%/1495%; WT compression 53.3 ms")
	return t
}

// Fig1 reproduces the motivating committed-memory plot (Knative hot VMs
// vs actively serving VMs) on the Azure trace sample.
func Fig1(quick bool) Table {
	return azureTable("Figure 1: Azure trace, Knative-autoscaled committed vs active memory", quick, false)
}

// Fig10 reproduces the §7.8 memory comparison: Firecracker+Knative vs
// Dandelion.
func Fig10(quick bool) Table {
	return azureTable("Figure 10: Azure trace, committed memory FC+Knative vs Dandelion", quick, true)
}

func azureTable(title string, quick, withDandelion bool) Table {
	t := Table{
		Title:  title,
		Header: []string{"Series", "avg MB", "max MB", "cold %", "p99 latency ms"},
	}
	nFns, dur := 100, 1200.0
	if quick {
		nFns, dur = 60, 400.0
	}
	tr := trace.Synthesize(4*nFns, dur, 9).Sample(nFns, 10)
	kn := faas.RunAzureKnative(tr, faas.FirecrackerSnapshot(16, 0), autoscale.Config{}, seed)
	t.Rows = append(t.Rows, []string{
		"FC + Knative committed", f0(kn.CommittedMB.TimeAverage()), f0(kn.CommittedMB.MaxValue()),
		f1(kn.ColdFraction * 100), f1(kn.LatencyMS.Percentile(99)),
	})
	t.Rows = append(t.Rows, []string{
		"VMs actively serving", f0(kn.ActiveMB.TimeAverage()), f0(kn.ActiveMB.MaxValue()), "-", "-",
	})
	if withDandelion {
		dd := faas.RunAzureDandelion(tr, faas.DandelionConfig{Cores: 16, Profile: isolation.X86Process}, seed)
		t.Rows = append(t.Rows, []string{
			"Dandelion committed", f0(dd.CommittedMB.TimeAverage()), f0(dd.CommittedMB.MaxValue()),
			f1(dd.ColdFraction * 100), f1(dd.LatencyMS.Percentile(99)),
		})
		ratio := kn.CommittedMB.TimeAverage() / dd.CommittedMB.TimeAverage()
		t.Notes = append(t.Notes, fmt.Sprintf("committed memory ratio: %.1fx (paper: ~24x / 96%% reduction)", ratio))
	} else {
		ratio := kn.CommittedMB.TimeAverage() / kn.ActiveMB.TimeAverage()
		t.Notes = append(t.Notes, fmt.Sprintf("committed/active ratio: %.1fx (paper: 16x)", ratio))
	}
	return t
}
