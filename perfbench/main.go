// Command perfbench is the repository's serving benchmark. Each run
// builds a fresh in-process deployment, drives one workload over real
// loopback sockets from one generator with at most nproc connections,
// checks every output, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run first repeats the untraced measurement (for Stats deltas, drift and
// the tracing overhead), then measures a second fresh deployment with
// spans recorded by the benchmark's wrappers, then climbs the layer
// ladder, and reports the per-layer metrics. BENCHMARK.json at the root
// of the repository lists both sets and why each workload exists.
//
// Run from the root of a checkout:
//
//	bash perfbench/run.sh --workload batch-cluster --seed 3 --seconds 10 --trace 0
//
// A wrong output makes the run print "correct": false and exit 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// warmup precedes every measured phase and is not measured.
const warmup = time.Second

// setupSamples is how many fresh processes sample setup_s.
const setupSamples = 7

// repeats is how many fresh deployments an end-to-end run measures.
const repeats = 3

var starts = map[string]func(runCfg) (*env, error){
	"logs-open":     startLogs,
	"batch-cluster": startCluster,
	"mixed-bulk":    startMixed,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	// setupSamples fresh processes sample setup_s; with 0 the run's own
	// set-up is the one sample.
	setupSamples int
	// reps fresh deployments are measured by an end-to-end run.
	reps    int
	corrupt bool
	log     io.Writer
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"throughput_inv_s", "inv/s"},
	{"p50_ms", "ms"},
	{"interactive.p50_ms", "ms"},
	{"wire_mb_s", "MB/s"},
	{"cpu_us_per_inv", "us"},
	{"alloc_kb_per_inv", "KB"},
	{"heap_peak_mb", "MB"},
}

// tails are the p99 latencies. On a shared 2-vCPU machine their spread
// from run to run exceeds any bound an end-to-end metric may have, so
// an end-to-end run prints them next to the end-to-end metrics and a
// traced run reports them, measured on its untraced deployment, with
// the per-layer metrics.
var tails = [][2]string{
	{"p99_ms", "ms"},
	{"interactive.p99_ms", "ms"},
}

// perLayer lists the per-layer metrics and their units.
var perLayer = append(append([][2]string{}, tails...), [][2]string{
	{"fail_ratio", "ratio"},
	{"drift.throughput_last_over_first", "ratio"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"admission.call_ns_first", "ns"},
	{"admission.call_ns_last", "ns"},
	{"admission.growth", "ratio"},
	{"wire.client_encode_us", "us"},
	{"wire.client_decode_us", "us"},
	{"wire.decode_ns_per_kb", "ns/KB"},
	{"wire.encode_ns_per_kb", "ns/KB"},
	{"sched.default.dispatch_wait_avg_us", "us"},
	{"sched.default.dispatch_wait_p99_us", "us"},
	{"sched.interactive.dispatch_wait_avg_us", "us"},
	{"sched.interactive.dispatch_wait_p99_us", "us"},
	{"sched.analytics.dispatch_wait_avg_us", "us"},
	{"sched.analytics.dispatch_wait_p99_us", "us"},
	{"sched.storage.dispatch_wait_avg_us", "us"},
	{"sched.storage.dispatch_wait_p99_us", "us"},
	{"sched.expired", "count"},
	{"sched.submit_to_run_ns_1t", "ns"},
	{"sched.submit_to_run_ns_3t", "ns"},
	{"engine.push_pop_ns", "ns"},
	{"engine.compute_engines", "count"},
	{"engine.comm_engines", "count"},
	{"engine.comm_completed_per_inv", "count"},
	{"core.invoke_us", "us"},
	{"core.invoke_batch_us_per_inv", "us"},
	{"core.batches_per_req", "count"},
	{"memctx.pool_reuse_ratio", "ratio"},
	{"memctx.copied_kb_per_inv", "KB"},
	{"memctx.peak_committed_mb", "MB"},
	{"memctx.cycle_ns_64b", "ns"},
	{"memctx.cycle_ns_80kib", "ns"},
	{"isolation.echo_us", "us"},
	{"service.auth_us", "us"},
	{"service.shard_us", "us"},
	{"comm.overhead_us", "us"},
	{"journal.appends_per_inv", "count"},
	{"journal.bytes_per_inv", "B"},
	{"journal.dedup_hits", "count"},
	{"journal.append_ns", "ns"},
	{"journal.dedup_ns", "ns"},
	{"cluster.hop_us", "us"},
	{"cluster.chunk_skew", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.rerouted", "count"},
	{"cluster.breaker_trips", "count"},
	{"frontend.handler_us", "us"},
	{"frontend.overhead_us", "us"},
	{"frontend.shed", "count"},
	{"compute.Access_us", "us"},
	{"compute.FanOut_us", "us"},
	{"compute.Render_us", "us"},
	{"compute.ImageTranscode_us", "us"},
	{"compute.SSBPartial_us", "us"},
	{"compute.SSBMerge_us", "us"},
	{"compute.StoreGen_us", "us"},
	{"trace.self.loadgen_late_us", "us"},
	{"trace.self.client_wire_us", "us"},
	{"trace.self.frontend_us", "us"},
	{"trace.self.worker_us", "us"},
	{"trace.self.compute_us", "us"},
	{"trace.self.service_us", "us"},
	{"trace.self.unattributed_us", "us"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"ladder.sum_us_per_inv", "us"},
	{"ladder.gap_cpu_us_per_inv", "us"},
	{"ladder.gap_p50_us", "us"},
}...)

func main() {
	o := options{log: os.Stdout}
	flag.StringVar(&o.workload, "workload", "", "workload to run: logs-open, batch-cluster or mixed-bulk")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives payload bytes, image content and the tenant mix order")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and the layer ladder")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and span dumps")
	setupOnly := flag.Bool("setup-only", false, "build the deployment once, print its set-up time and exit")
	flag.Parse()
	o.trace = *trace == 1
	o.setupSamples, o.reps = setupSamples, repeats
	if _, ok := starts[o.workload]; !ok || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload logs-open|batch-cluster|mixed-bulk, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if *setupOnly {
		d, err := setupOnce(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("setup_s %.9f\n", d.Seconds())
		return
	}
	res, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scratch makes the run's private scratch directory under o.out.
func scratch(o options) (string, func(), error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// setupOnce builds and tears down one deployment.
func setupOnce(o options) (time.Duration, error) {
	dir, clean, err := scratch(o)
	if err != nil {
		return 0, err
	}
	defer clean()
	e, err := starts[o.workload](runCfg{seed: o.seed, dir: dir})
	if err != nil {
		return 0, err
	}
	e.close()
	return e.setup, nil
}

// sampleSetup runs set-up in fresh processes, so every sample pays the
// lazy initialisation a new node pays.
func sampleSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 0; k < o.setupSamples; k++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--out", o.out)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(string(b), "setup_s")), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up sample: %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// measure builds a fresh deployment and runs one phase on it.
func measure(o options, dir string, rec *recorder) (*env, *phase, error) {
	dir, err := os.MkdirTemp(dir, "env-") // fresh journals for a fresh deployment
	if err != nil {
		return nil, nil, err
	}
	cfg := runCfg{seed: o.seed, warmup: warmup, measure: time.Duration(o.seconds) * time.Second, rec: rec, dir: dir}
	e, err := starts[o.workload](cfg)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	e.corrupt.Store(o.corrupt)
	ph, err := runPhase(e, cfg.warmup, cfg.measure, rec != nil)
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		rec.addRequests(e, ph.records)
	}
	return e, ph, nil
}

func benchmark(o options) (*result, error) {
	fmt.Fprintf(o.log, "# fingerprint %s\n", fingerprint())
	fmt.Fprintf(o.log, "# workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	dir, clean, err := scratch(o)
	if err != nil {
		return nil, err
	}
	defer clean()

	var setups []float64
	if !o.trace && o.setupSamples > 0 {
		if setups, err = sampleSetup(o); err != nil {
			return nil, err
		}
	}
	// An end-to-end run measures repeats fresh deployments and reports
	// the median of each metric; a traced run needs one untraced
	// reference.
	reps := o.reps
	if o.trace {
		reps = 1
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var e *env
	var ph *phase
	runs := map[string][]float64{}
	for r := 0; r < reps; r++ {
		if e, ph, err = measure(o, dir, nil); err != nil {
			return nil, err
		}
		report(o, res, e, ph)
		for k, v := range endToEndOf(o.workload, e, ph) {
			runs[k] = append(runs[k], v...)
		}
		if o.setupSamples == 0 {
			setups = append(setups, e.setup.Seconds())
		}
	}
	fmt.Fprintf(o.log, "# set-up samples (s): %v\n", setups)
	e2e := map[string]float64{"setup_s": median(setups)}
	for k, v := range runs {
		e2e[k] = median(v)
	}
	info := runInfo(e, ph)
	for _, t := range tails {
		info[t[0]] = e2e[t[0]]
	}
	if !o.trace {
		for _, k := range []string{"p99_ms", "interactive.p99_ms", "fail_ratio", "loadgen.late_p50_ms", "loadgen.late_p99_ms", "drift.throughput_last_over_first"} {
			fmt.Fprintf(o.log, "# %s %g\n", k, info[k])
		}
		emit(o.log, res, endToEnd, e2e)
		return res, nil
	}

	// Traced run: a second fresh deployment with the span wrappers on.
	rec := newRecorder()
	te, tph, err := measure(o, dir, rec)
	if err != nil {
		return nil, err
	}
	report(o, res, te, tph)
	a := analyze(rec.spans)
	if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "# %d spans of %d traced requests written to %s\n", len(rec.spans), a.requests, path)

	m := info
	for _, name := range []string{"frontend.handler_us:frontend", "service.auth_us:service.auth", "service.shard_us:service.shard",
		"wire.client_encode_us:wire.client_encode", "wire.client_decode_us:wire.client_decode",
		"cluster.hop_us:cluster.hop_us", "cluster.chunk_skew:cluster.chunk_skew", "comm.overhead_us:comm.overhead_us",
		"frontend.overhead_us:frontend.overhead_us"} {
		metricName, spanName, _ := strings.Cut(name, ":")
		m[metricName] = median(a.named[spanName])
	}
	for _, fn := range []string{"Access", "FanOut", "Render", "ImageTranscode", "SSBPartial", "SSBMerge", "StoreGen"} {
		m["compute."+fn+"_us"] = median(a.named["compute."+fn])
	}
	for _, l := range selfLayers {
		m["trace.self."+l+"_us"] = a.self[l]
	}
	m["trace.unattributed_ratio"] = a.unattributed
	m["trace.overhead_ratio"] = ratio(median(windows(tph.streams[mainStream(o.workload)].lat, 0.5)), e2e["p50_ms"])

	if err := runLadder(o.workload, runCfg{seed: o.seed, measure: time.Duration(o.seconds) * time.Second, dir: dir}, ph, m); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "# ladder: sum %.1f us/inv next to cpu_us_per_inv %.1f (gap %.1f) and p50 %.1f us (gap %.1f)\n",
		m["ladder.sum_us_per_inv"], e2e["cpu_us_per_inv"], m["ladder.gap_cpu_us_per_inv"], e2e["p50_ms"]*1e3, m["ladder.gap_p50_us"])
	for _, l := range selfLayers {
		fmt.Fprintf(o.log, "# self time %-13s %10.1f us/request\n", l, a.self[l])
	}
	emit(o.log, res, perLayer, m)
	return res, nil
}

// endToEndOf derives the end-to-end samples of one measured phase: one
// value per metric, except the latencies, which have one per window of
// consecutive requests, so a stall of the shared machine moves the
// windows it falls in and not the median over all of them.
func endToEndOf(workload string, e *env, ph *phase) map[string][]float64 {
	_, ok, _, _, _, bytes := ph.totals()
	secs := ph.elapsed.Seconds()
	main, inter := ph.streams[mainStream(workload)], ph.streams[e.interactive]
	return map[string][]float64{
		"throughput_inv_s":   {float64(ok) / secs},
		"p50_ms":             windows(main.lat, 0.5),
		"p99_ms":             windows(main.lat, 0.99),
		"interactive.p50_ms": windows(inter.lat, 0.5),
		"interactive.p99_ms": windows(inter.lat, 0.99),
		"wire_mb_s":          {float64(bytes) / secs / 1e6},
		"cpu_us_per_inv":     {ratio(us(ph.cpu), float64(ok))},
		"alloc_kb_per_inv":   {ratio(float64(ph.alloc)/1024, float64(ok))},
		"heap_peak_mb":       {float64(ph.heapPeak) / 1e6},
	}
}

// report adds a phase's counts to the result and prints its streams.
func report(o options, res *result, e *env, ph *phase) {
	invs, _, wrong, failed, _, _ := ph.totals()
	res.Attempted += invs
	res.Failed += failed + wrong
	res.Correct = res.Correct && wrong == 0
	for k, s := range e.streams {
		st := ph.streams[k]
		fmt.Fprintf(o.log, "# stream %s: %d requests, %d invocations, %d correct, %d wrong, %d failed, %d latency samples (%d past p99)\n",
			s.name, st.requests, st.invs, st.ok, st.wrong, st.failed, len(st.lat), len(st.lat)/100)
	}
	fmt.Fprintf(o.log, "# cpu utilisation %.3f of %d CPUs\n", ph.cpu.Seconds()/ph.elapsed.Seconds(), runtime.NumCPU())
	for _, msg := range ph.errs {
		fmt.Fprintf(o.log, "# failure: %s\n", msg)
	}
	if wrong > 0 {
		fmt.Fprintf(o.log, "# WRONG OUTPUTS: %d\n", wrong)
	}
}

// runInfo derives the per-layer counters of an untraced phase.
func runInfo(e *env, ph *phase) map[string]float64 {
	invs, ok, wrong, failed, _, _ := ph.totals()
	b, a := ph.before, ph.after
	m := map[string]float64{
		"fail_ratio": ratio(float64(failed+wrong), float64(invs)),
	}
	var batchReqs int
	for k, s := range e.streams {
		st := ph.streams[k]
		if s.rate > 0 {
			m["loadgen.late_p50_ms"] = median(st.late)
			m["loadgen.late_p99_ms"] = quantile(st.late, 0.99)
		}
		if s.batch {
			batchReqs += st.requests
		}
	}
	first, last := ph.slices[0], ph.slices[nSlices-1]
	m["drift.throughput_last_over_first"] = ratio(float64(last.ok)/last.dur.Seconds(), float64(first.ok)/first.dur.Seconds())
	for _, t := range []string{"default", "interactive", "analytics", "storage"} {
		m["sched."+t+".dispatch_wait_avg_us"], m["sched."+t+".dispatch_wait_p99_us"] = waitDelta(b, a, t)
	}
	fok := float64(ok)
	nodes := float64(len(e.nodes))
	m["sched.expired"] = float64(a.expired - b.expired)
	m["engine.compute_engines"] = float64(a.computeEngines) / nodes
	m["engine.comm_engines"] = float64(a.commEngines) / nodes
	m["engine.comm_completed_per_inv"] = ratio(float64(a.commCompleted-b.commCompleted), fok)
	m["core.batches_per_req"] = ratio(float64(a.batches-b.batches), float64(batchReqs))
	reuses, allocs := float64(a.reuses-b.reuses), float64(a.allocs-b.allocs)
	m["memctx.pool_reuse_ratio"] = ratio(reuses, reuses+allocs)
	m["memctx.copied_kb_per_inv"] = ratio(float64(a.copiedBytes-b.copiedBytes)/1024, fok)
	m["memctx.peak_committed_mb"] = float64(a.peakCommitted) / 1e6
	m["journal.appends_per_inv"] = ratio(float64(a.journalAppends-b.journalAppends), fok)
	m["journal.bytes_per_inv"] = ratio(float64(a.journalBytes-b.journalBytes), fok)
	m["journal.dedup_hits"] = float64(a.dedupHits - b.dedupHits)
	m["cluster.retries"] = float64(a.retries - b.retries)
	m["cluster.rerouted"] = float64(a.rerouted - b.rerouted)
	m["cluster.breaker_trips"] = float64(a.breakerTrips - b.breakerTrips)
	m["frontend.shed"] = float64(a.shed - b.shed)
	return m
}

// emit prints each listed metric as a line and puts it in the result.
func emit(w io.Writer, res *result, list [][2]string, values map[string]float64) {
	for _, nu := range list {
		v := values[nu[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "metric %-40s %16.6f %s\n", nu[0], v, nu[1])
		res.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
	}
}

// fingerprint names the machine, toolchain and source the run measured.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fp := map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(fp) // a map of strings and ints always marshals
	return string(b)
}

// commit names the measured source: the git HEAD when the checkout is
// a repository, and always a digest of the Go sources and go.mod files.
func commit() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	id := "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		id = ref + " " + id
	}
	return id
}
