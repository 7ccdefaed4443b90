// Remote-transport tests: a real worker frontend behind httptest, a
// RemoteNode dialing it, and the Heartbeater/Tracker membership loop.
// These live in an external test package because the frontend imports
// the cluster package.
package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/dvm"
	"dandelion/internal/frontend"
	"dandelion/internal/wire"
)

// newWorker spins one worker node with its frontend and the echo
// composition E registered.
func newWorker(t *testing.T, adminToken string) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Echo", Binary: dvm.EchoProgram().Encode(), OutputSets: []string{"Copy"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.NewWithConfig(p, frontend.Config{AdminToken: adminToken}))
	t.Cleanup(srv.Close)
	return p, srv
}

// invokeOne sends one request as a one-request batch — the shape a
// coordinator single takes on the wire.
func invokeOne(rn *cluster.RemoteNode, tenant, name string, inputs map[string][]dandelion.Item) (map[string][]dandelion.Item, error) {
	res := rn.InvokeBatchCtx(context.Background(), []dandelion.BatchRequest{{Composition: name, Tenant: tenant, Inputs: inputs}})
	return res[0].Outputs, res[0].Err
}

func TestRemoteNodeInvoke(t *testing.T) {
	p, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})

	out, err := invokeOne(rn, "alice", "E", map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte("over the wire")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if items := out["Result"]; len(items) != 1 || string(items[0].Data) != "over the wire" {
		t.Fatalf("outputs = %v", out)
	}

	// The tenant identity crossed the wire: the worker accounted the
	// invocation under alice.
	found := false
	for _, ts := range p.Stats().Tenants {
		if ts.Tenant == "alice" && ts.Completed > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant alice not accounted on the worker: %+v", p.Stats().Tenants)
	}

	if _, err := invokeOne(rn, "", "Ghost", nil); err == nil {
		t.Fatal("unknown composition must error")
	} else if errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("application rejection mis-tagged as transport error: %v", err)
	}
}

func TestRemoteNodeInvokeBatch(t *testing.T) {
	_, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})

	reqs := make([]dandelion.BatchRequest, 5)
	for i := 0; i < 4; i++ {
		reqs[i] = dandelion.BatchRequest{
			Composition: "E", Tenant: "bob",
			Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte{byte('a' + i)}}}},
		}
	}
	reqs[4] = dandelion.BatchRequest{Composition: "Ghost", Tenant: "bob"}

	res := rn.InvokeBatchCtx(context.Background(), reqs)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 0; i < 4; i++ {
		if res[i].Err != nil {
			t.Fatalf("request %d: %v", i, res[i].Err)
		}
		if got := string(res[i].Outputs["Result"][0].Data); got != string([]byte{byte('a' + i)}) {
			t.Fatalf("request %d echoed %q", i, got)
		}
	}
	if res[4].Err == nil {
		t.Fatal("unknown composition in batch must error")
	}
}

func TestRemoteNodeTransportFailure(t *testing.T) {
	_, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	srv.Close()

	res := rn.InvokeBatchCtx(context.Background(), []dandelion.BatchRequest{
		{Composition: "E"}, {Composition: "E"},
	})
	for i, r := range res {
		if !errors.Is(r.Err, cluster.ErrRemote) {
			t.Fatalf("result %d: err = %v, want ErrRemote", i, r.Err)
		}
	}
	if _, err := rn.NodeStats(); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("stats err = %v, want ErrRemote", err)
	}
}

func TestRemoteNodeStatsAndWeight(t *testing.T) {
	p, srv := newWorker(t, "sesame")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{Token: "sesame"})

	if _, err := invokeOne(rn, "", "E", map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte("hi")}},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := rn.NodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations < 1 || st.ComputeEngines < 1 {
		t.Fatalf("stats over the wire look empty: %+v", st)
	}

	rn.SetTenantWeight("alice", 5)
	if got := p.TenantWeight("alice"); got != 5 {
		t.Fatalf("weight = %d, want 5 (ControlErrors=%d)", got, rn.ControlErrors())
	}

	// Without the token the control-plane call is refused and counted.
	anon := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	anon.SetTenantWeight("alice", 9)
	if anon.ControlErrors() != 1 {
		t.Fatalf("ControlErrors = %d, want 1", anon.ControlErrors())
	}
	if got := p.TenantWeight("alice"); got != 5 {
		t.Fatalf("unauthorized weight update applied: %d", got)
	}
}

// TestHeartbeaterJoinsAndRejoins drives the full membership loop: a
// worker joins a coordinator, goes silent, is evicted after the missed-
// beat horizon, then a restarted heartbeater re-joins and the eviction
// record clears.
func TestHeartbeaterJoinsAndRejoins(t *testing.T) {
	cp, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Shutdown)
	m := cluster.NewManager(cluster.RoundRobin)
	tr := cluster.NewTracker(m, 10*time.Millisecond, 2, nil)
	tr.Start()
	t.Cleanup(tr.Stop)
	coord := httptest.NewServer(frontend.NewWithConfig(cp, frontend.Config{Tracker: tr}))
	t.Cleanup(coord.Close)

	_, worker := newWorker(t, "")
	hb := &cluster.Heartbeater{
		Coordinator: coord.URL,
		Name:        "w1",
		SelfURL:     worker.URL,
		Interval:    10 * time.Millisecond,
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	go hb.Run(ctx1)
	waitFor("join", func() bool { return len(m.Workers()) == 1 })

	// Silence the worker: the tracker must evict within the horizon.
	cancel1()
	waitFor("eviction", func() bool { return tr.AggregateStats().Evictions >= 1 })
	if got := len(m.Workers()); got != 0 {
		t.Fatalf("workers after eviction = %d, want 0", got)
	}
	if ev := tr.AggregateStats().Evicted; len(ev) != 1 || ev[0].Name != "w1" {
		t.Fatalf("Evicted = %+v, want one w1 record", ev)
	}

	// A restarted worker re-joins on its own.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go hb.Run(ctx2)
	waitFor("re-join", func() bool { return len(m.Workers()) == 1 })
	waitFor("eviction record cleared", func() bool { return len(tr.AggregateStats().Evicted) == 0 })
	if hb.Joins() < 2 {
		t.Fatalf("Joins = %d, want >= 2", hb.Joins())
	}
}

// TestRemoteNodeBinaryNegotiation pins the framing handshake: against
// a frame-speaking frontend the first batch probes with a JSON body
// (Accept offering the binary type), the framed answer latches binary
// mode, and later batches travel binary end to end.
func TestRemoteNodeBinaryNegotiation(t *testing.T) {
	_, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	if got := rn.WireMode(); got != "probing" {
		t.Fatalf("mode before first batch = %q, want probing", got)
	}

	mkBatch := func(payload string) []dandelion.BatchRequest {
		return []dandelion.BatchRequest{{
			Composition: "E",
			Inputs:      map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte(payload)}}},
		}}
	}
	res := rn.InvokeBatchCtx(context.Background(), mkBatch("probe"))
	if res[0].Err != nil {
		t.Fatalf("probe batch: %v", res[0].Err)
	}
	if got := string(res[0].Outputs["Result"][0].Data); got != "probe" {
		t.Fatalf("probe echoed %q", got)
	}
	if got := rn.WireMode(); got != "binary" {
		t.Fatalf("mode after probe = %q, want binary", got)
	}

	// Second batch travels the binary framing; results still decode.
	res = rn.InvokeBatchCtx(context.Background(), mkBatch("framed"))
	if res[0].Err != nil {
		t.Fatalf("binary batch: %v", res[0].Err)
	}
	if got := string(res[0].Outputs["Result"][0].Data); got != "framed" {
		t.Fatalf("binary batch echoed %q", got)
	}
}

// TestRemoteNodeJSONFallback pins the downgrade path: a binary-unaware
// worker (a stub that only speaks the JSON protocol and ignores Accept)
// latches JSON mode, and every batch — including the probe — succeeds.
func TestRemoteNodeJSONFallback(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reqs []wire.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
			http.Error(w, `{"error":"bad batch body"}`, http.StatusBadRequest)
			return
		}
		res := make([]wire.BatchResult, len(reqs))
		for i, req := range reqs {
			res[i].Outputs = req.Inputs // plain echo
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(stub.Close)

	rn := cluster.NewRemoteNode(stub.URL, cluster.RemoteOptions{})
	for i := 0; i < 2; i++ {
		res := rn.InvokeBatchCtx(context.Background(), []dandelion.BatchRequest{{
			Composition: "E",
			Inputs:      map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("legacy")}}},
		}})
		if res[0].Err != nil {
			t.Fatalf("batch %d against JSON-only worker: %v", i, res[0].Err)
		}
		if got := string(res[0].Outputs["In"][0].Data); got != "legacy" {
			t.Fatalf("batch %d echoed %q", i, got)
		}
	}
	if got := rn.WireMode(); got != "json" {
		t.Fatalf("mode after JSON-only answers = %q, want json", got)
	}
}
