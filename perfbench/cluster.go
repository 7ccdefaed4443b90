package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/dvm"
	"dandelion/internal/frontend"
	"dandelion/internal/memctx"
	"dandelion/internal/wire"
)

// batch-cluster: closed loop of binary-framed /invoke-batch/ requests
// of tiny sandboxed Echo invocations through a coordinator to two
// journaled workers.
const (
	clusterConns   = 2
	clusterBatch   = 16
	clusterPayload = 64
	clusterPool    = 256 // distinct seeded payloads
	echoMemBytes   = 4096
	heartbeat      = time.Second // cmd/dandelion's -heartbeat-interval default
)

const echoComposition = `composition E(In) => Result { Echo(x = all In) => (Result = Copy); }`

// echoFunc is the dvm Echo binary with the declared memory the
// workload uses.
func echoFunc() dandelion.ComputeFunc {
	return dandelion.ComputeFunc{Name: "Echo", Binary: dvm.EchoProgram().Encode(),
		MemBytes: echoMemBytes, OutputSets: []string{"Copy"}}
}

// echoPayloads renders the seeded request payloads.
func echoPayloads(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, clusterPool)
	for i := range out {
		out[i] = make([]byte, clusterPayload)
		rng.Read(out[i])
	}
	return out
}

// echoInputs is the j-th invocation of request i.
func echoInputs(payloads [][]byte, i, j int) map[string][]memctx.Item {
	k := ((i+2)*clusterBatch + j) % clusterPool
	return map[string][]memctx.Item{"In": {{Name: "item0", Data: payloads[k]}}}
}

func startCluster(cfg runCfg) (e *env, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	payloads := echoPayloads(cfg.seed)
	handler := func(name string, h http.Handler) http.Handler {
		if cfg.rec != nil {
			return cfg.rec.handler(name, h)
		}
		return h
	}
	if cfg.rec != nil {
		// The coordinator's worker clients use the default transport;
		// tracing wraps it so worker spans carry the request id.
		base := http.DefaultTransport
		http.DefaultTransport = transport{base: base}
		e.stops = append(e.stops, func() { http.DefaultTransport = base })
	}
	e.stops = append(e.stops, func() {
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	})

	t0 := time.Now()
	coord, err := e.platform(dandelion.Options{})
	if err != nil {
		return e, err
	}
	mgr := cluster.NewManager(cluster.RoundRobin)
	mgr.EnableKeyedRetries(fmt.Sprintf("coord-%d-%d", os.Getpid(), time.Now().UnixNano()))
	tr := cluster.NewTracker(mgr, heartbeat, 3, nil)
	tr.Start()
	e.stops = append(e.stops, tr.Stop)
	coordURL, err := e.serve(handler("frontend", frontend.NewWithConfig(coord, frontend.Config{
		Cluster: mgr, Tracker: tr, RouteViaCluster: true,
	})))
	if err != nil {
		return e, err
	}
	e.mgr = mgr
	e.all = []*dandelion.Platform{coord}

	ctx, cancel := context.WithCancel(context.Background())
	var beats sync.WaitGroup
	e.stops = append(e.stops, func() {
		cancel()
		beats.Wait()
	})
	for k := 1; k <= 2; k++ {
		w, err := e.platform(dandelion.Options{JournalDir: filepath.Join(cfg.dir, fmt.Sprintf("worker%d", k))})
		if err != nil {
			return e, err
		}
		if err := w.RegisterFunction(echoFunc()); err != nil {
			return e, err
		}
		if _, err := w.RegisterCompositionText(echoComposition); err != nil {
			return e, err
		}
		url, err := e.serve(handler("worker", frontend.New(w)))
		if err != nil {
			return e, err
		}
		hb := &cluster.Heartbeater{Coordinator: coordURL, Name: fmt.Sprintf("w%d", k), SelfURL: url, Interval: heartbeat}
		if err := hb.Join(); err != nil {
			return e, err
		}
		beats.Add(1)
		go func() {
			defer beats.Done()
			hb.Run(ctx)
		}()
		e.nodes = append(e.nodes, w)
		e.all = append(e.all, w)
	}

	target := coordURL + "/invoke-batch/E"
	e.streams = []*stream{{name: "main", conns: clusterConns, batch: true,
		send: func(c *http.Client, i int, id uint64, traced bool) outcome {
			reqs := make([]map[string][]memctx.Item, clusterBatch)
			for j := range reqs {
				reqs[j] = echoInputs(payloads, i, j)
			}
			return sendBatch(c, target, "", reqs, id, traced, func(j int, outs map[string][]memctx.Item) string {
				if !bytes.Equal(first(outs, "Result"), e.expect(reqs[j]["In"][0].Data)) {
					return "Echo output differs from its input"
				}
				return ""
			})
		}}}
	if err := e.firstResponses(); err != nil {
		return e, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

// slot is one decoded batch result.
type slot struct {
	outputs map[string][]memctx.Item
	err     string
}

// decodeResults decodes a binary batch response of exactly n slots.
// The slots stay valid until done is called.
func decodeResults(raw []byte, n int) ([]slot, func(), error) {
	dec := wire.NewDecoder(bytes.NewReader(raw))
	done := func() {
		dec.Recycle()
		dec.Release()
	}
	var out []slot
	for {
		outputs, msg, err := dec.DecodeResult()
		if err == io.EOF {
			break
		}
		if err != nil {
			done()
			return nil, nil, err
		}
		out = append(out, slot{outputs: outputs, err: msg})
	}
	if len(out) != n {
		done()
		return nil, nil, fmt.Errorf("batch response has %d slots, want %d", len(out), n)
	}
	return out, done, nil
}

// first is the first item of the named output set.
func first(outputs map[string][]memctx.Item, set string) []byte {
	if items := outputs[set]; len(items) > 0 {
		return items[0].Data
	}
	return nil
}
