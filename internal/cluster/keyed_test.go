// Keyed (idempotent) routing tests: the manager's chunk-key
// assignment, the lifted single-request retry restraint, the
// same-worker retry fallback, and — with a real journaled platform
// behind the members — the exactly-once guarantee that worker-side
// dedup gives retried chunks.
package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dandelion/internal/core"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
)

// upperPlatform builds a real core platform (journaled via opts) with
// the uppercase echo composition registered.
func upperPlatform(t *testing.T, opts core.Options) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(core.ComputeFunc{Name: "Upper", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for _, it := range in[0].Items {
			out.Items = append(out.Items, memctx.Item{
				Name: it.Name, Data: []byte(strings.ToUpper(string(it.Data))),
			})
		}
		return []memctx.Set{out}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return p
}

// lossyNode executes its chunk on a real platform but reports the
// first batch as a wholesale transport failure — the work ran, the
// response was lost. What a worker looks like behind a flaky network.
type lossyNode struct {
	nodeBase
	p     *core.Platform
	drops atomic.Int32
}

func (l *lossyNode) InvokeBatchCtx(ctx context.Context, reqs []core.BatchRequest) []core.BatchResult {
	res := l.p.InvokeBatchCtx(ctx, reqs)
	if l.drops.Add(1) == 1 {
		for i := range res {
			res[i] = core.BatchResult{Err: errors.New("cluster: response lost")}
		}
	}
	return res
}

// upperBatch builds n unkeyed requests of the uppercase composition
// under tenant alice, carrying the letters a, b, c, ...
func upperBatch(n int) []core.BatchRequest {
	reqs := make([]core.BatchRequest, n)
	for i := range reqs {
		reqs[i] = core.BatchRequest{Composition: "U", Tenant: "alice",
			Inputs: map[string][]memctx.Item{"In": {{Name: "x", Data: []byte{'a' + byte(i)}}}}}
	}
	return reqs
}

// TestKeyedSingleRequestRetrySameWorker: without keys a single-request
// chunk is never retried; with EnableKeyedRetries it is, and with no
// alternative survivor the retry goes back to the same worker — where
// the dedup table answers from the first execution's cached outputs.
// Exactly-once, observed end to end: one platform invocation, one
// dedup hit, a clean client result.
func TestKeyedSingleRequestRetrySameWorker(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(RoundRobin)
	m.EnableKeyedRetries("life1")
	if err := m.Register("w1", &lossyNode{p: p}); err != nil {
		t.Fatal(err)
	}

	res := m.InvokeBatchCtx(context.Background(), upperBatch(1))
	if res[0].Err != nil {
		t.Fatalf("keyed single-request chunk not recovered: %v", res[0].Err)
	}
	if got := string(res[0].Outputs["Result"][0].Data); got != "A" {
		t.Fatalf("output = %q, want A", got)
	}
	st := p.Stats()
	if st.Invocations != 1 {
		t.Fatalf("invocations = %d, want 1 (retry must dedup, not re-execute)", st.Invocations)
	}
	if st.DedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1", st.DedupHits)
	}
	for _, ws := range m.Stats() {
		if ws.Name == "w1" && ws.Rerouted != 1 {
			t.Fatalf("w1.Rerouted = %d, want 1", ws.Rerouted)
		}
	}
}

// TestUnkeyedSingleRequestStillNotRetried: the lifted restraint is
// strictly opt-in — without keys the old heuristic stands and a failed
// single-request chunk surfaces its error.
func TestUnkeyedSingleRequestStillNotRetried(t *testing.T) {
	p := upperPlatform(t, core.Options{})
	m := NewManager(RoundRobin)
	if err := m.Register("w1", &lossyNode{p: p}); err != nil {
		t.Fatal(err)
	}
	res := m.InvokeBatchCtx(context.Background(), upperBatch(1))
	if res[0].Err == nil {
		t.Fatal("unkeyed single-request chunk was retried")
	}
}

// keyedSabotageNode is the PR-6 stale-snapshot saboteur re-armed for
// the journaled world: it executes its chunk on a shared journaled
// platform, reports wholesale failure, and deregisters the would-be
// survivor mid-batch.
type keyedSabotageNode struct {
	lossyNode
	m      *Manager
	victim string
	once   sync.Once
}

func (s *keyedSabotageNode) InvokeBatchCtx(ctx context.Context, reqs []core.BatchRequest) []core.BatchResult {
	s.once.Do(func() { s.m.Deregister(s.victim) })
	return s.lossyNode.InvokeBatchCtx(ctx, reqs)
}

// TestKeyedRerouteSkipsDeregisteredSurvivorDedups re-runs the PR-6
// stale-snapshot regression with journaling on: the survivor chosen at
// retry time must come from live membership (not the pre-batch
// snapshot), and because the chunk already executed before its failure
// report, the retried chunk must be answered by the dedup table — not
// double-executed. Both members front the same journaled platform, so
// the second execution attempt hits the keys the first one completed.
func TestKeyedRerouteSkipsDeregisteredSurvivorDedups(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(LeastLoaded)
	m.EnableKeyedRetries("life1")
	dying := &keyedSabotageNode{lossyNode: lossyNode{p: p}, m: m, victim: "stale"}
	stale := &fakeNode{}
	live := &lossyNode{p: p}
	live.drops.Store(1) // never drop: only "dying" loses its response
	if err := m.Register("dying", dying); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("stale", stale); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("live", live); err != nil {
		t.Fatal(err)
	}

	res := m.InvokeBatchCtx(context.Background(), upperBatch(6))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d not recovered: %v", i, r.Err)
		}
	}
	if stale.calls.Load() != 0 {
		t.Fatalf("deregistered worker served %d invocations, want 0", stale.calls.Load())
	}
	st := p.Stats()
	if st.Invocations != 6 {
		t.Fatalf("invocations = %d, want 6 (retried chunk must dedup, not double-execute)", st.Invocations)
	}
	if st.DedupHits != 6 {
		t.Fatalf("dedup hits = %d, want 6", st.DedupHits)
	}
}

// TestInvokeBatchKeyedAsCallerKeys pins the minting rule under
// EnableKeyedRetries: a call carrying any key reaches the worker
// verbatim, empty entries included, and a call whose requests carry no
// key gets minted chunk keys — without touching the caller's slice.
func TestInvokeBatchKeyedAsCallerKeys(t *testing.T) {
	rec := &recordKeysNode{}
	m := NewManager(RoundRobin)
	m.EnableKeyedRetries("life1")
	if err := m.Register("w1", rec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, reqs []core.BatchRequest, want []string) {
		t.Helper()
		for i, r := range m.InvokeBatchCtx(context.Background(), reqs) {
			if r.Err != nil {
				t.Fatalf("%s: result %d: %v", what, i, r.Err)
			}
		}
		rec.mu.Lock()
		got := rec.keys
		rec.keys = nil
		rec.mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("%s: worker saw keys %q, want %q", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: worker saw keys %q, want %q", what, got, want)
			}
		}
	}

	caller := upperBatch(3)
	caller[0].Key, caller[2].Key = "k0", "k2"
	check("caller keys", caller, []string{"k0", "", "k2"})

	unkeyed := upperBatch(2)
	check("minted keys", unkeyed, []string{journal.ChunkKey("life1-1", 0), journal.ChunkKey("life1-1", 1)})
	for i, r := range unkeyed {
		if r.Key != "" {
			t.Fatalf("caller's request %d mutated: key %q", i, r.Key)
		}
	}
}

// recordKeysNode records the keys its requests carry and answers each
// with an empty success.
type recordKeysNode struct {
	nodeBase
	mu   sync.Mutex
	keys []string
}

func (r *recordKeysNode) InvokeBatchCtx(_ context.Context, reqs []core.BatchRequest) []core.BatchResult {
	r.mu.Lock()
	for _, q := range reqs {
		r.keys = append(r.keys, q.Key)
	}
	r.mu.Unlock()
	return make([]core.BatchResult, len(reqs))
}

// TestManagerInvokeKeyedAs: a keyed single reaches the worker with its
// key intact, and the worker dedups the re-send.
func TestManagerInvokeKeyedAs(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(RoundRobin)
	if err := m.Register("w1", p); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := map[string][]memctx.Item{"In": {{Name: "x", Data: []byte("hi")}}}
	out, err := m.InvokeKeyedAsCtx(ctx, "alice", "U", "req-1", in)
	if err != nil || string(out["Result"][0].Data) != "HI" {
		t.Fatalf("keyed invoke: %v %v", out, err)
	}
	// The re-send replays cached outputs without executing.
	out, err = m.InvokeKeyedAsCtx(ctx, "alice", "U", "req-1", in)
	if err != nil || string(out["Result"][0].Data) != "HI" {
		t.Fatalf("keyed re-send: %v %v", out, err)
	}
	if st := p.Stats(); st.Invocations != 1 || st.DedupHits != 1 {
		t.Fatalf("invocations=%d hits=%d, want 1/1", st.Invocations, st.DedupHits)
	}
}
