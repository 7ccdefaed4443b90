package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"dandelion"
	"dandelion/internal/autoscale"
	"dandelion/internal/dvm"
	"dandelion/internal/engine"
	"dandelion/internal/isolation"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
	"dandelion/internal/ssb"
	"dandelion/internal/wire"
	"dandelion/internal/workloads"
)

// The layer ladder times each module's public functions on the shapes
// the workloads send, one layer at a time and in this process.

// perCall runs fn in blocks of n calls and returns the median time per
// call over the blocks, in ns.
func perCall(blocks, n int, fn func()) float64 {
	var t []float64
	for b := 0; b < blocks; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		t = append(t, float64(time.Since(start))/float64(n))
	}
	return median(t)
}

// admissionLadder drives one tenant's AdmitBytes/Window/Finish on a
// virtual clock at rate sub-batches/s of n invocations of size bytes
// each, for seconds of virtual time. It returns the per-call cost of the
// first and last 200 sub-batches and the mean over all of them.
func admissionLadder(rate float64, n int, size int64, seconds float64) (first, last, avg float64) {
	steps := int(rate * seconds)
	if steps < 400 || n < 1 {
		return 0, 0, 0
	}
	adm := autoscale.NewAdmission(autoscale.AdmissionConfig{})
	costs := make([]float64, steps)
	var total float64
	for k := 0; k < steps; k++ {
		now := float64(k) / rate
		start := time.Now()
		adm.AdmitBytes("bulk", n, int64(n)*size, now)
		adm.Window("bulk", now)
		adm.Finish("bulk", n, now)
		costs[k] = float64(time.Since(start)) / 3
		total += costs[k]
	}
	return median(costs[:200]), median(costs[steps-200:]), total / float64(steps)
}

// frame encodes requests (or, with results, result slots) as one
// binary frame.
func frame(reqs []map[string][]memctx.Item, results bool) []byte {
	var b bytes.Buffer
	enc := wire.NewEncoder(&b)
	defer enc.Release()
	for _, r := range reqs {
		if results {
			enc.EncodeResult(r)
		} else {
			enc.EncodeRequest(r)
		}
	}
	enc.EncodeEnd()
	return b.Bytes()
}

// decodeNsPerKB times the server's decode of a request frame.
func decodeNsPerKB(reqs []map[string][]memctx.Item) float64 {
	raw := frame(reqs, false)
	ns := perCall(7, max(1, 4<<20/len(raw)), func() {
		dec := wire.NewDecoder(bytes.NewReader(raw))
		for {
			if _, _, err := dec.DecodeKeyedRequest(); err != nil {
				break
			}
		}
		dec.Recycle()
		dec.Release()
	})
	return ns / (float64(len(raw)) / 1024)
}

// encodeNsPerKB times the server's encode of a result frame.
func encodeNsPerKB(results []map[string][]memctx.Item) float64 {
	size := len(frame(results, true))
	var b bytes.Buffer
	ns := perCall(7, max(1, 4<<20/size), func() {
		b.Reset()
		enc := wire.NewEncoder(&b)
		for _, r := range results {
			enc.EncodeResult(r)
		}
		enc.EncodeEnd()
		enc.Release()
	})
	return ns / (float64(size) / 1024)
}

// schedLadder is the median Submit→run delay of bursts spread over
// tenants tenants, through a DRR scheduler over a two-engine pool.
func schedLadder(tenants int) float64 {
	q := engine.NewQueue()
	pool := engine.NewPool(engine.Compute, q)
	pool.SetCount(2)
	s := sched.New(q, sched.Config{})
	defer func() {
		s.Close()
		pool.Shutdown()
		q.Close()
	}()
	const burst = 24
	var waits []float64
	done := make(chan float64, burst)
	for round := 0; round < 200; round++ {
		for k := 0; k < burst; k++ {
			submitted := time.Now()
			err := s.Submit(fmt.Sprintf("t%d", k%tenants), sched.Task{Do: func() {
				done <- float64(time.Since(submitted))
			}})
			if err != nil {
				return 0
			}
		}
		for k := 0; k < burst; k++ {
			waits = append(waits, <-done)
		}
	}
	return median(waits)
}

func memctxCycle(limit, size int) float64 {
	set := memctx.Set{Name: "In", Items: []memctx.Item{{Name: "x", Data: make([]byte, size)}}}
	return perCall(7, 2000, func() {
		c, _ := memctx.NewPooled(limit)
		if err := c.AddInputSet(set); err != nil {
			panic(err) // the set fits the limit by construction
		}
		memctx.Recycle(c)
	})
}

func echoExecute() (float64, error) {
	backend, err := isolation.New("cheri")
	if err != nil {
		return 0, err
	}
	prog := dvm.EchoProgram()
	task := isolation.Task{Binary: prog.Encode(), Prepared: prog, MemBytes: echoMemBytes,
		Inputs: []memctx.Set{{Name: "In", Items: []memctx.Item{{Name: "x", Data: make([]byte, clusterPayload)}}}}}
	var failed error
	ns := perCall(7, 500, func() {
		if _, err := backend.Execute(task); err != nil {
			failed = err
		}
	})
	return ns / 1e3, failed
}

func journalLadder(dir string) (appendNs, dedupNs float64, err error) {
	j, err := journal.OpenFile(filepath.Join(dir, "ladder.wal"), journal.FileOptions{})
	if err != nil {
		return 0, 0, err
	}
	rec := journal.Record{Kind: journal.KindInvokeBegin, Tenant: dandelion.DefaultTenant, Comp: "E", Key: "coord-1-1#0", Digest: 42}
	appendNs = perCall(7, 500, func() {
		if _, aerr := j.Append(rec); aerr != nil {
			err = aerr
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	d := journal.NewDedup(0)
	outs := map[string][]memctx.Item{"Result": {{Name: "item0", Data: make([]byte, clusterPayload)}}}
	k := 0
	dedupNs = perCall(7, 5000, func() {
		key := journal.ChunkKey("coord-1-1", k)
		k++
		if _, _, ok := d.Reserve(key); ok {
			d.Complete(key, 42, outs)
		}
	})
	return appendNs, dedupNs, err
}

// timeUS is the median wall time of fn over n calls, in µs.
func timeUS(n int, fn func() error) (float64, error) {
	var t []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		t = append(t, us(time.Since(start)))
	}
	return median(t), nil
}

// coreLadder times in-process invocations of the workload's shapes on a
// fresh node: no HTTP, no wire codec, no admission.
func coreLadder(workload string, cfg runCfg) (single, batchPerInv float64, err error) {
	e := &env{}
	defer e.close()
	switch workload {
	case "logs-open":
		ids := []uint64{}
		for i := 0; i < 400; i++ {
			ids = append(ids, uint64(i+1))
		}
		authURL, blocks, err := logsServices(e, runCfg{seed: cfg.seed}, ids)
		if err != nil {
			return 0, 0, err
		}
		p, err := e.platform(dandelion.Options{JournalDir: filepath.Join(cfg.dir, "ladder-logs")})
		if err != nil {
			return 0, 0, err
		}
		if err := registerLogsApp(p, authURL); err != nil {
			return 0, 0, err
		}
		k := 0
		single, err = timeUS(len(ids), func() error {
			id := ids[k]
			k++
			out, err := p.InvokeKeyedAs(dandelion.DefaultTenant, "RenderLogs", fmt.Sprintf("key-%d", id),
				map[string][]dandelion.Item{"AccessToken": {{Name: "t", Data: []byte(logsToken(id))}}})
			if err != nil {
				return err
			}
			page := first(out, "HTMLOutput")
			for _, b := range blocks {
				if !bytes.Contains(page, b) {
					return fmt.Errorf("ladder: RenderLogs page is missing a shard's lines")
				}
			}
			return nil
		})
		return single, 0, err
	case "batch-cluster":
		p, err := e.platform(dandelion.Options{JournalDir: filepath.Join(cfg.dir, "ladder-echo")})
		if err != nil {
			return 0, 0, err
		}
		if err := p.RegisterFunction(echoFunc()); err != nil {
			return 0, 0, err
		}
		if _, err := p.RegisterCompositionText(echoComposition); err != nil {
			return 0, 0, err
		}
		payloads := echoPayloads(cfg.seed)
		i := 0
		per, err := timeUS(300, func() error {
			reqs := make([]dandelion.BatchRequest, clusterBatch)
			for j := range reqs {
				reqs[j] = dandelion.BatchRequest{Composition: "E", Inputs: echoInputs(payloads, i, j),
					Key: journal.ChunkKey(fmt.Sprintf("ladder-%d", i), j)}
			}
			i++
			return batchErr(p.InvokeBatch(reqs))
		})
		return 0, per / clusterBatch, err
	case "mixed-bulk":
		p, err := e.platform(dandelion.Options{ByteFairness: true})
		if err != nil {
			return 0, 0, err
		}
		if _, err := workloads.Register(p, "all"); err != nil {
			return 0, 0, err
		}
		img := workloads.MakeImages(1, imageSide, imageSide)
		single, err = timeUS(300, func() error {
			_, err := p.InvokeAs("interactive", "ImagePipeline", map[string][]dandelion.Item{"Images": img})
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		chunks, err := workloads.MakeSSBChunks(ssbChunks*ssbChunkBytes/40, ssbChunks)
		if err != nil {
			return 0, 0, err
		}
		analytics := make([]dandelion.BatchRequest, ssbBatch)
		for j := range analytics {
			analytics[j] = dandelion.BatchRequest{Composition: "SSBQuery", Tenant: "analytics",
				Inputs: map[string][]dandelion.Item{"Query": {workloads.MakeSSBQuery(ssb.Q11)}, "Chunks": chunks}}
		}
		fetch := make([]dandelion.BatchRequest, fetchBatch)
		for j := range fetch {
			fetch[j] = dandelion.BatchRequest{Composition: "StorageFetch", Tenant: "storage",
				Inputs: map[string][]dandelion.Item{"Sizes": workloads.MakeFetchSizes(fetchBlobs, fetchBytes)}}
		}
		a, err := timeUS(60, func() error { return batchErr(p.InvokeBatch(analytics)) })
		if err != nil {
			return 0, 0, err
		}
		f, err := timeUS(60, func() error { return batchErr(p.InvokeBatch(fetch)) })
		// The bulk stream alternates the two kinds evenly.
		return single, (a + f) / float64(ssbBatch+fetchBatch), err
	}
	return 0, 0, fmt.Errorf("ladder: unknown workload %q", workload)
}

func batchErr(rs []dandelion.BatchResult) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// ladderShapes are the frames a workload's server decodes and encodes.
func ladderShapes(workload string, seed int64) (reqs, results []map[string][]memctx.Item, err error) {
	switch workload {
	case "batch-cluster":
		payloads := echoPayloads(seed)
		for j := 0; j < clusterBatch; j++ {
			in := echoInputs(payloads, 0, j)
			reqs = append(reqs, in)
			results = append(results, map[string][]memctx.Item{"Result": in["In"]})
		}
	case "mixed-bulk":
		chunks, err := workloads.MakeSSBChunks(ssbChunks*ssbChunkBytes/40, ssbChunks)
		if err != nil {
			return nil, nil, err
		}
		for j := 0; j < ssbBatch; j++ {
			reqs = append(reqs, map[string][]memctx.Item{"Query": {workloads.MakeSSBQuery(ssb.Q11)}, "Chunks": chunks})
		}
		for j := 0; j < fetchBatch; j++ {
			var blobs []memctx.Item
			for _, s := range workloads.MakeFetchSizes(fetchBlobs, fetchBytes) {
				blobs = append(blobs, memctx.Item{Name: s.Name, Data: workloads.MakeBlob(fetchBytes, workloads.SeedFromName(s.Name))})
			}
			results = append(results, map[string][]memctx.Item{"Blobs": blobs})
		}
	}
	return reqs, results, nil
}

// runLadder measures every ladder rung for workload. ref is the
// untraced phase of the same run: it supplies the sub-batch rate the
// admission rung replays and the per-invocation counts the ladder sum
// weighs the rungs by.
func runLadder(workload string, cfg runCfg, ref *phase, m map[string]float64) error {
	_, ok, _, _, _, _ := ref.totals()
	reqs, results, err := ladderShapes(workload, cfg.seed)
	if err != nil {
		return err
	}
	var decKB, encKB, payload float64
	m["wire.decode_ns_per_kb"], m["wire.encode_ns_per_kb"] = 0, 0
	if len(reqs) > 0 {
		m["wire.decode_ns_per_kb"] = decodeNsPerKB(reqs)
		m["wire.encode_ns_per_kb"] = encodeNsPerKB(results)
		decKB = float64(len(frame(reqs, false))) / 1024 / float64(len(reqs))
		encKB = float64(len(frame(results, true))) / 1024 / float64(len(results))
		for _, r := range reqs {
			for _, items := range r {
				for _, it := range items {
					payload += float64(len(it.Data))
				}
			}
		}
		payload /= float64(len(reqs))
	}

	// The admission rung replays the entry node's admission plane: the
	// executing node's sub-batches on a single node, and on the cluster
	// the coordinator's, which admits each request whole before the
	// workers admit their chunks again.
	subBatches := float64(ref.after.batches - ref.before.batches)
	perSub := ratio(float64(ref.after.invocations-ref.before.invocations), subBatches)
	if workload == "batch-cluster" {
		subBatches = float64(ref.streams[0].requests)
		perSub = clusterBatch
	}
	first, last, avg := admissionLadder(subBatches/ref.elapsed.Seconds(), int(perSub+0.5), int64(payload), cfg.measure.Seconds())
	if workload == "batch-cluster" {
		// Every request then pays admission three times: once at the
		// coordinator and once at each worker for its chunk.
		subBatches *= 3
	}
	m["admission.call_ns_first"] = first
	m["admission.call_ns_last"] = last
	m["admission.growth"] = ratio(last, first)

	m["sched.submit_to_run_ns_1t"] = schedLadder(1)
	m["sched.submit_to_run_ns_3t"] = schedLadder(3)
	q := engine.NewQueue()
	m["engine.push_pop_ns"] = perCall(7, 20000, func() {
		q.Push(engine.Task{Do: func() {}})
		q.TryPop()
	})
	q.Close()
	m["memctx.cycle_ns_64b"] = memctxCycle(echoMemBytes, clusterPayload)
	m["memctx.cycle_ns_80kib"] = memctxCycle(0, ssbChunkBytes)
	if m["isolation.echo_us"], err = echoExecute(); err != nil {
		return err
	}
	if m["journal.append_ns"], m["journal.dedup_ns"], err = journalLadder(cfg.dir); err != nil {
		return err
	}
	if m["core.invoke_us"], m["core.invoke_batch_us_per_inv"], err = coreLadder(workload, cfg); err != nil {
		return err
	}

	// The ladder sum per invocation: the in-process core cost (which
	// contains sched, engine, memctx, isolation and journal), the wire
	// codec on every server-side frame hop, and the admission calls.
	var core float64
	switch workload {
	case "logs-open":
		core = m["core.invoke_us"]
	case "batch-cluster":
		core = m["core.invoke_batch_us_per_inv"]
	default:
		var singles, batched float64
		for _, s := range ref.streams {
			if s.batch {
				batched += float64(s.ok)
			} else {
				singles += float64(s.ok)
			}
		}
		core = ratio(singles*m["core.invoke_us"]+batched*m["core.invoke_batch_us_per_inv"], singles+batched)
	}
	dec, enc := decKB*m["wire.decode_ns_per_kb"]/1e3, encKB*m["wire.encode_ns_per_kb"]/1e3
	var wireUS float64
	switch workload {
	case "batch-cluster":
		// Two frame hops decode each request and encode its result:
		// client → coordinator and coordinator → worker.
		wireUS = 2 * (dec + enc)
	case "mixed-bulk":
		// Bulk invocations are SSB (decode-heavy) and Fetch
		// (encode-heavy) in the ratio of their batch sizes.
		bulk := ratio(float64(ref.streams[1].ok), float64(ok))
		wireUS = bulk * (dec*ssbBatch + enc*fetchBatch) / (ssbBatch + fetchBatch)
	}
	admUS := 3 * avg * ratio(subBatches, float64(ok)) / 1e3
	sum := core + wireUS + admUS
	main := ref.streams[mainStream(workload)]
	invsPerReq := ratio(float64(main.invs), float64(main.requests))
	m["ladder.sum_us_per_inv"] = sum
	m["ladder.gap_cpu_us_per_inv"] = ratio(float64(ref.cpu)/1e3, float64(ok)) - sum
	m["ladder.gap_p50_us"] = median(main.lat)*1e3 - sum*invsPerReq
	return nil
}

// mainStream is the stream behind p50_ms/p99_ms: the bulk stream on
// mixed-bulk, the only stream elsewhere.
func mainStream(workload string) int {
	if workload == "mixed-bulk" {
		return 1
	}
	return 0
}
