package faas

import (
	"testing"

	"dandelion/internal/arrivals"
	"dandelion/internal/autoscale"
	"dandelion/internal/isolation"
	"dandelion/internal/sim"
	"dandelion/internal/trace"
)

func mkDandelion(cfg DandelionConfig) func(*sim.Engine) Platform {
	return func(e *sim.Engine) Platform { return NewDandelion(e, cfg) }
}

func mkMicroVM(cfg MicroVMConfig) func(*sim.Engine) Platform {
	return func(e *sim.Engine) Platform { return NewMicroVM(e, cfg) }
}

func mkWT(cores int) func(*sim.Engine) Platform {
	return func(e *sim.Engine) Platform { return NewWT(e, Wasmtime(cores)) }
}

func mkHybrid(cfg DHybridConfig) func(*sim.Engine) Platform {
	return func(e *sim.Engine) Platform { return NewHybrid(e, cfg) }
}

func TestDandelionUnloadedMatchesProfile(t *testing.T) {
	// Unloaded 1x1 matmul latency ≈ cold start total (Table 1).
	for _, p := range []isolation.CostProfile{
		isolation.MorelloCheri, isolation.MorelloKVM, isolation.X86KVM,
	} {
		got := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 4, Profile: p}), MatMul1(), 1)
		want := (p.TotalUS() + 5) / 1000 // + compute 5µs
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("unloaded latency = %.4f ms, want ≈ %.4f", got, want)
		}
	}
}

func TestFirecrackerUnloadedColdLatency(t *testing.T) {
	// 0% hot: every request boots a MicroVM: >150 ms.
	got := UnloadedLatency(mkMicroVM(Firecracker(4, 0)), MatMul1(), 1)
	if got < 150 || got > 200 {
		t.Fatalf("FC cold unloaded = %.1f ms, want ~155", got)
	}
	snap := UnloadedLatency(mkMicroVM(FirecrackerSnapshot(4, 0)), MatMul1(), 1)
	if snap < 9 || snap > 20 {
		t.Fatalf("FC snapshot unloaded = %.1f ms, want ~10.5", snap)
	}
	// Order-of-magnitude headline (§7.2): Dandelion cold start is >10×
	// faster than FC snapshot restore.
	d := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 4, Profile: isolation.MorelloKVM}), MatMul1(), 1)
	if snap/d < 10 {
		t.Fatalf("FC-snapshot/Dandelion-KVM = %.1f, want > 10x", snap/d)
	}
}

func TestFig5SaturationOrder(t *testing.T) {
	// Sandbox creation sweep (0% hot): Dandelion backends sustain
	// thousands of RPS; FC snapshot saturates near 120; FC full boot
	// below 30 (§7.2).
	rps := []float64{100, 1000, 4000}
	cheri := Sweep(mkDandelion(DandelionConfig{Cores: 4, Profile: isolation.MorelloCheri}), MatMul1(), rps, 5, 1)
	for _, pt := range cheri {
		if pt.Saturated(0.02) {
			t.Fatalf("cheri saturated at %v RPS", pt.RPS)
		}
	}
	fcSnap := Sweep(mkMicroVM(FirecrackerSnapshot(4, 0)), MatMul1(), []float64{100, 200}, 5, 1)
	if fcSnap[0].Saturated(0.05) {
		t.Fatalf("FC snapshot saturated at 100 RPS: %+v", fcSnap[0])
	}
	if !fcSnap[1].Saturated(0.05) {
		t.Fatalf("FC snapshot not saturated at 200 RPS: %+v", fcSnap[1])
	}
	fc := Sweep(mkMicroVM(Firecracker(4, 0)), MatMul1(), []float64{50}, 5, 1)
	if !fc[0].Saturated(0.05) {
		t.Fatalf("FC full boot not saturated at 50 RPS")
	}
}

func TestFig6SaturationPoints(t *testing.T) {
	// 128x128 matmul on 16 cores: D-KVM sustains ~4500 RPS, Wasmtime
	// saturates by ~2600 (§7.3).
	dk := Sweep(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true}),
		MatMul128(), []float64{4000}, 5, 1)
	if dk[0].Saturated(0.03) {
		t.Fatalf("D-KVM saturated at 4000 RPS: completed %d/%d", dk[0].Completed, dk[0].Offered)
	}
	wt := Sweep(mkWT(16), MatMul128(), []float64{2000, 3000}, 5, 1)
	if wt[0].Saturated(0.03) {
		t.Fatalf("WT saturated at 2000 RPS")
	}
	if !wt[1].Saturated(0.03) {
		t.Fatalf("WT not saturated at 3000 RPS")
	}
}

func TestFig2HotRatioTailSensitivity(t *testing.T) {
	// §2: p99.5 tracks the cold-start latency whenever the cold
	// fraction exceeds 0.5%.
	rps := []float64{500}
	hot97 := Sweep(mkMicroVM(FirecrackerSnapshot(16, 0.97)), MatMul128(), rps, 20, 1)
	hot100 := Sweep(mkMicroVM(FirecrackerSnapshot(16, 1.0)), MatMul128(), rps, 20, 1)
	if hot97[0].Summary.P995 < 10 {
		t.Fatalf("97%% hot p99.5 = %.2f ms, want >= boot latency", hot97[0].Summary.P995)
	}
	if hot100[0].Summary.P995 > 10 {
		t.Fatalf("100%% hot p99.5 = %.2f ms, want < 10", hot100[0].Summary.P995)
	}
	if hot97[0].Summary.P995 < 3*hot100[0].Summary.P995 {
		t.Fatalf("tail not sensitive to hot ratio: %.2f vs %.2f",
			hot97[0].Summary.P995, hot100[0].Summary.P995)
	}
}

func TestDandelionStableVarianceVsFirecracker(t *testing.T) {
	// §7.3: Dandelion cold-starts every request yet keeps latency
	// stable; FC at 97% hot shows a heavy tail.
	rps := []float64{1000}
	d := Sweep(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true}),
		MatMul128(), rps, 20, 1)
	fc := Sweep(mkMicroVM(FirecrackerSnapshot(16, 0.97)), MatMul128(), rps, 20, 1)
	if d[0].Summary.RelVarPct > fc[0].Summary.RelVarPct {
		t.Fatalf("Dandelion variance %.1f%% not below FC %.1f%%",
			d[0].Summary.RelVarPct, fc[0].Summary.RelVarPct)
	}
	if d[0].ColdFraction != 1 {
		t.Fatalf("Dandelion cold fraction = %v, want 1 (per-request sandboxes)", d[0].ColdFraction)
	}
}

func TestWarmCacheAblation(t *testing.T) {
	// With the warm-cache ablation, later requests skip creation.
	eng := sim.NewEngine(1)
	d := NewDandelion(eng, DandelionConfig{Cores: 4, Profile: isolation.X86KVM, WarmCache: true})
	n := 0
	for i := 0; i < 50; i++ {
		eng.At(sim.Time(float64(i)*0.01), func() {
			d.Submit(MatMul1(), func(float64, bool) { n++ })
		})
	}
	eng.RunAll()
	if n != 50 {
		t.Fatalf("completed %d", n)
	}
	if d.ColdStarts >= 50 {
		t.Fatalf("warm cache never reused: %d cold starts", d.ColdStarts)
	}
}

func TestHybridTPCTradeoffs(t *testing.T) {
	// Figure 7: compute-bound work favours pinned tpc=1; I/O-bound
	// work favours high tpc. Dandelion's split wins on both.
	const cores = 16
	matmul := MatMul128()
	fetch := FetchCompute(4)

	// Compute-bound at high load: pinned tpc=1 beats tpc=5.
	pin := Sweep(mkHybrid(DHybrid(cores, 1, true)), matmul, []float64{4200}, 5, 1)
	tpc5 := Sweep(mkHybrid(DHybrid(cores, 5, false)), matmul, []float64{4200}, 5, 1)
	if pin[0].Saturated(0.03) {
		t.Fatalf("pinned tpc=1 saturated on matmul at 4200")
	}
	if !tpc5[0].Saturated(0.03) && tpc5[0].Summary.P99 < pin[0].Summary.P99 {
		t.Fatalf("tpc=5 unexpectedly beat pinned on compute: %.2f vs %.2f",
			tpc5[0].Summary.P99, pin[0].Summary.P99)
	}

	// I/O-bound: pinned tpc=1 wastes cores during fetch waits (capacity
	// ~16 cores / 9.5 ms ≈ 1700 RPS), while tpc=5 overlaps the waits.
	pinIO := Sweep(mkHybrid(DHybrid(cores, 1, true)), fetch, []float64{2500}, 5, 1)
	tpc5IO := Sweep(mkHybrid(DHybrid(cores, 5, false)), fetch, []float64{2500}, 5, 1)
	if !pinIO[0].Saturated(0.03) {
		t.Fatalf("pinned tpc=1 did not saturate on fetch-compute at 2500 RPS")
	}
	if tpc5IO[0].Saturated(0.03) {
		t.Fatalf("tpc=5 saturated on fetch-compute at 2500 RPS")
	}

	// Dandelion with the controller handles both without retuning.
	dCfg := DandelionConfig{Cores: cores, Profile: isolation.X86KVM, Cached: true, Balance: true}
	dMat := Sweep(mkDandelion(dCfg), matmul, []float64{4200}, 5, 1)
	dIO := Sweep(mkDandelion(dCfg), fetch, []float64{2500}, 5, 1)
	if dMat[0].Saturated(0.03) {
		t.Fatalf("Dandelion saturated on matmul at 4200")
	}
	if dIO[0].Saturated(0.03) {
		t.Fatalf("Dandelion saturated on fetch-compute at 2500")
	}
}

func TestControllerMovesCoresUnderIOLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDandelion(eng, DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, Balance: true, CommConcurrency: 8})
	app := FetchCompute(4)
	eng.ExpArrivals(1200, 10, func(int) { d.Submit(app, func(float64, bool) {}) })
	eng.RunAll()
	_, comm := d.CoreSplit()
	if comm <= 1 {
		t.Fatalf("controller kept comm cores at %d under heavy I/O", comm)
	}
}

func TestPhasesScaling(t *testing.T) {
	// §7.4: latency grows linearly with phases; Dandelion-KVM uncached
	// stays within ~2x of FC-hot, and far below FC cold-per-phase.
	for _, phases := range []int{2, 8, 16} {
		app := FetchCompute(phases)
		d := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM}), app, 1)
		dc := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true}), app, 1)
		fcHot := UnloadedLatency(mkMicroVM(Firecracker(16, 1)), app, 1)
		fcCold := UnloadedLatency(mkMicroVM(FirecrackerSnapshot(16, 0)), app, 1)
		if dc > d {
			t.Fatalf("phases=%d: cached (%.2f) slower than uncached (%.2f)", phases, dc, d)
		}
		if d > fcHot*2.5 {
			t.Fatalf("phases=%d: Dandelion %.2f ms too far above FC hot %.2f", phases, d, fcHot)
		}
		if fcCold < d {
			t.Fatalf("phases=%d: FC cold %.2f below Dandelion %.2f", phases, fcCold, d)
		}
	}
	// Linearity: doubling phases roughly doubles latency.
	l4 := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM}), FetchCompute(4), 1)
	l8 := UnloadedLatency(mkDandelion(DandelionConfig{Cores: 16, Profile: isolation.X86KVM}), FetchCompute(8), 1)
	if r := l8 / l4; r < 1.6 || r > 2.4 {
		t.Fatalf("phase scaling ratio = %.2f, want ~2", r)
	}
}

func TestMultiplexFig8Shapes(t *testing.T) {
	apps := [2]App{ImageCompression(), LogProcessing()}
	patterns := [2]arrivals.Pattern{
		arrivals.Bursty(40, 120, 60, 20, 5),
		arrivals.Bursty(40, 160, 60, 15, 5),
	}
	dCfg := DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, Balance: true}
	d := RunMultiplex(mkDandelion(dCfg), apps, patterns, 1)
	fc := RunMultiplex(mkMicroVM(FirecrackerSnapshot(16, 0.97)), apps, patterns, 1)
	wt := RunMultiplex(mkWT(16), apps, patterns, 1)

	// Dandelion: lowest relative variance for both apps (§7.6 reports
	// 1.3% and 2.9% vs FC's 389%/1495%).
	for i := 0; i < 2; i++ {
		if d[i].Summary.RelVarPct > fc[i].Summary.RelVarPct {
			t.Fatalf("app %s: Dandelion variance %.1f%% above FC %.1f%%",
				d[i].App, d[i].Summary.RelVarPct, fc[i].Summary.RelVarPct)
		}
	}
	// Wasmtime: compression (compute) inflates log-processing tail via
	// cooperative scheduling; Dandelion's log p99 must be lower.
	if d[1].Summary.P99 >= wt[1].Summary.P99 {
		t.Fatalf("log processing p99: Dandelion %.1f >= WT %.1f",
			d[1].Summary.P99, wt[1].Summary.P99)
	}
	// FC bimodal: the cold mode sits a snapshot-restore above the warm
	// median, so p99 carries most of the boot latency.
	if fc[0].Summary.P99 < fc[0].Summary.Median+8 {
		t.Fatalf("FC compression tail not bimodal: p99 %.1f median %.1f",
			fc[0].Summary.P99, fc[0].Summary.Median)
	}
}

func TestAzureMemoryCommitment(t *testing.T) {
	tr := trace.Synthesize(400, 600, 9).Sample(100, 10)
	kn := RunAzureKnative(tr, FirecrackerSnapshot(16, 0), autoscale.Config{}, 3)
	dd := RunAzureDandelion(tr, DandelionConfig{Cores: 16, Profile: isolation.X86Process}, 3)

	knAvg := kn.CommittedMB.TimeAverage()
	ddAvg := dd.CommittedMB.TimeAverage()
	if ddAvg <= 0 || knAvg <= 0 {
		t.Fatalf("memory averages: knative %.1f dandelion %.1f", knAvg, ddAvg)
	}
	ratio := knAvg / ddAvg
	// §7.8: Dandelion commits ~4% of Firecracker+Knative (ratio ~24x);
	// Figure 1 reports 16x. Accept the right order of magnitude.
	if ratio < 8 {
		t.Fatalf("memory ratio = %.1fx, want >= 8x (paper: 16-24x)", ratio)
	}
	// Knative keeps most requests warm (paper: 96.7% warm).
	if kn.ColdFraction > 0.15 {
		t.Fatalf("knative cold fraction = %.3f, want < 0.15", kn.ColdFraction)
	}
	// Active memory is far below committed for Knative (Figure 1).
	if kn.ActiveMB.TimeAverage() > knAvg/4 {
		t.Fatalf("knative active %.1f not well below committed %.1f",
			kn.ActiveMB.TimeAverage(), knAvg)
	}
	// End-to-end p99: Dandelion at least comparable (paper: 46% lower).
	if dd.LatencyMS.Percentile(99) > kn.LatencyMS.Percentile(99) {
		t.Fatalf("Dandelion p99 %.1f above Knative %.1f",
			dd.LatencyMS.Percentile(99), kn.LatencyMS.Percentile(99))
	}
}

func TestGVisorWorseThanFCSnapshot(t *testing.T) {
	gv := UnloadedLatency(mkMicroVM(GVisor(4, 0)), MatMul1(), 1)
	snap := UnloadedLatency(mkMicroVM(FirecrackerSnapshot(4, 0)), MatMul1(), 1)
	if gv <= snap {
		t.Fatalf("gVisor %.1f ms not worse than FC snapshot %.1f ms", gv, snap)
	}
}

func TestSweepDeterministic(t *testing.T) {
	mk := mkDandelion(DandelionConfig{Cores: 8, Profile: isolation.X86KVM})
	a := Sweep(mk, MatMul128(), []float64{500}, 5, 7)
	b := Sweep(mk, MatMul128(), []float64{500}, 5, 7)
	if a[0].Summary.Mean != b[0].Summary.Mean || a[0].Completed != b[0].Completed {
		t.Fatal("sweep not deterministic")
	}
}
