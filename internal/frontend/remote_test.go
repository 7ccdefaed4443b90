// Tests for the PR-6 frontend fixes and remote-cluster routes: output
// determinism, batch check ordering, X-Output-Sets parsing, the JSON
// invoke mode, and /cluster/join + /cluster/heartbeat.
package frontend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/dvm"
)

// TestInvokeDefaultOutputDeterministic pins the fix for the map-
// iteration bug: an invoke that names no output set must always return
// the same set — the first non-empty one in sorted name order — not
// whichever set Go's map iteration happened to visit first.
func TestInvokeDefaultOutputDeterministic(t *testing.T) {
	p, srv := newServer(t)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Multi",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{
				{Name: "ZOut", Items: []dandelion.Item{{Name: "z", Data: []byte("zzz")}}},
				{Name: "AOut", Items: []dandelion.Item{{Name: "a", Data: []byte("aaa")}}},
				{Name: "MOut", Items: []dandelion.Item{{Name: "m", Data: []byte("mmm")}}},
			}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition M(In) => RZ, RA, RM {
    Multi(x = all In) => (RZ = ZOut, RA = AOut, RM = MOut);
}`); err != nil {
		t.Fatal(err)
	}

	// RA sorts first among {RA, RM, RZ}; every invoke must agree.
	for i := 0; i < 25; i++ {
		code, body := post(t, srv.URL+"/invoke/M?input=In", nil, []byte("x"))
		if code != 200 || body != "aaa" {
			t.Fatalf("invoke %d: %d %q, want 200 %q", i, code, body, "aaa")
		}
	}
}

// TestInvokeBatchRejectsBeforeReadingBody pins the check ordering:
// unknown-composition and draining rejections must not depend on the
// body being well-formed JSON.
func TestInvokeBatchRejectsBeforeReadingBody(t *testing.T) {
	p, srv := newServer(t)
	malformed := []byte("{not json")

	code, body := post(t, srv.URL+"/invoke-batch/Ghost", nil, malformed)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown composition") {
		t.Fatalf("unknown comp + bad body: %d %q, want 400 unknown composition", code, body)
	}

	registerEcho(t, srv.URL)
	p.Drain()
	code, _ = post(t, srv.URL+"/invoke-batch/E", nil, malformed)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining + bad body: %d, want 503", code)
	}
}

func registerEcho(t *testing.T, base string) {
	t.Helper()
	code, body := post(t, base+"/register/function/Echo",
		map[string]string{"X-Output-Sets": "Copy"}, dvm.EchoProgram().Encode())
	if code != 200 {
		t.Fatalf("register function: %d %s", code, body)
	}
	code, body = post(t, base+"/register/composition", nil, []byte(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`))
	if code != 200 {
		t.Fatalf("register composition: %d %s", code, body)
	}
}

// TestOutputSetsHeaderTrimmed: padding and trailing commas in
// X-Output-Sets must not produce phantom or whitespace-prefixed set
// names.
func TestOutputSetsHeaderTrimmed(t *testing.T) {
	_, srv := newServer(t)
	code, body := post(t, srv.URL+"/register/function/Echo",
		map[string]string{"X-Output-Sets": " Copy , ,"}, dvm.EchoProgram().Encode())
	if code != 200 {
		t.Fatalf("register function: %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/register/composition", nil, []byte(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`))
	if code != 200 {
		t.Fatalf("register composition: %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("trimmed"))
	if code != 200 || body != "trimmed" {
		t.Fatalf("invoke: %d %q", code, body)
	}
}

// TestInvokeJSONMode round-trips the full-fidelity JSON mode:
// many-set inputs in, all output sets back.
func TestInvokeJSONMode(t *testing.T) {
	_, srv := newServer(t)
	registerEcho(t, srv.URL)

	reqBody, _ := json.Marshal(WireBatchRequest{Inputs: map[string][]WireItem{
		"In": {{Name: "x", Key: "k", Data: []byte("json mode")}},
	}})
	code, body := post(t, srv.URL+"/invoke/E",
		map[string]string{"Content-Type": "application/json"}, reqBody)
	if code != 200 {
		t.Fatalf("invoke: %d %s", code, body)
	}
	var res WireBatchResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if items := res.Outputs["Result"]; len(items) != 1 || string(items[0].Data) != "json mode" {
		t.Fatalf("outputs = %+v", res.Outputs)
	}

	// Unknown composition and malformed body fail cleanly.
	code, body = post(t, srv.URL+"/invoke/Ghost",
		map[string]string{"Content-Type": "application/json"}, reqBody)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown comp: %d %s", code, body)
	}
	code, _ = post(t, srv.URL+"/invoke/E",
		map[string]string{"Content-Type": "application/json"}, []byte("{oops"))
	if code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
}

func newCoordinator(t *testing.T, token string) (*cluster.Tracker, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	tr := cluster.NewTracker(cluster.NewManager(cluster.RoundRobin), time.Second, 3, nil)
	srv := httptest.NewServer(NewWithConfig(p, Config{
		AdminToken:      token,
		Tracker:         tr,
		RouteViaCluster: true,
	}))
	t.Cleanup(srv.Close)
	return tr, srv
}

func TestClusterJoinAndHeartbeatRoutes(t *testing.T) {
	tr, coord := newCoordinator(t, "")

	join := func(name, url string) (int, string) {
		b, _ := json.Marshal(map[string]string{"name": name, "url": url})
		return post(t, coord.URL+"/cluster/join", nil, b)
	}
	beat := func(name string) (int, string) {
		b, _ := json.Marshal(map[string]string{"name": name})
		return post(t, coord.URL+"/cluster/heartbeat", nil, b)
	}

	// A heartbeat from a never-joined worker is refused so the worker
	// knows to re-join.
	if code, _ := beat("w1"); code != http.StatusNotFound {
		t.Fatalf("heartbeat before join: %d, want 404", code)
	}

	code, body := join("w1", "http://127.0.0.1:1")
	if code != 200 || !strings.Contains(body, `"workers":1`) {
		t.Fatalf("join: %d %s", code, body)
	}
	if ws := tr.Manager().Workers(); len(ws) != 1 || ws[0] != "w1" {
		t.Fatalf("workers = %v", ws)
	}
	if code, _ := beat("w1"); code != 200 {
		t.Fatalf("heartbeat: %d", code)
	}

	// Malformed registrations are rejected.
	for _, c := range []struct{ name, url string }{
		{"", "http://x"},           // no name
		{"w2", ""},                 // no URL
		{"w2", "not a url"},        // unparsable
		{"w2", "ftp://host/thing"}, // wrong scheme
	} {
		if code, _ := join(c.name, c.url); code != http.StatusBadRequest {
			t.Fatalf("join(%q, %q) = %d, want 400", c.name, c.url, code)
		}
	}

	// GET is not allowed.
	resp, err := http.Get(coord.URL + "/cluster/join")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET join = %d", resp.StatusCode)
	}
}

// TestClusterRoutesHonorAdminToken: once an admin token is configured,
// membership changes require it — an unauthenticated join must not
// register a worker.
func TestClusterRoutesHonorAdminToken(t *testing.T) {
	tr, coord := newCoordinator(t, "sesame")
	b, _ := json.Marshal(map[string]string{"name": "w1", "url": "http://127.0.0.1:1"})

	if code, _ := post(t, coord.URL+"/cluster/join", nil, b); code != http.StatusUnauthorized {
		t.Fatalf("join without token: %d, want 401", code)
	}
	if got := len(tr.Manager().Workers()); got != 0 {
		t.Fatalf("unauthenticated join registered a worker: %d", got)
	}
	code, _ := post(t, coord.URL+"/cluster/join", map[string]string{"X-Admin-Token": "sesame"}, b)
	if code != 200 {
		t.Fatalf("join with token: %d", code)
	}
}

// TestCoordinatorRoutesViaCluster: a coordinator whose own platform has
// no compositions still serves /invoke and /invoke-batch by forwarding
// to joined workers.
func TestCoordinatorRoutesViaCluster(t *testing.T) {
	tr, coord := newCoordinator(t, "")

	wp, worker := newServer(t)
	registerEcho(t, worker.URL)
	if err := tr.Join("w1", cluster.NewRemoteNode(worker.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}

	code, body := post(t, coord.URL+"/invoke/E?input=In", nil, []byte("via coordinator"))
	if code != 200 || body != "via coordinator" {
		t.Fatalf("invoke via coordinator: %d %q", code, body)
	}

	var batch bytes.Buffer
	if err := json.NewEncoder(&batch).Encode([]WireBatchRequest{
		{Inputs: map[string][]WireItem{"In": {{Name: "x", Data: []byte("b0")}}}},
		{Inputs: map[string][]WireItem{"In": {{Name: "x", Data: []byte("b1")}}}},
	}); err != nil {
		t.Fatal(err)
	}
	code, body = post(t, coord.URL+"/invoke-batch/E", nil, batch.Bytes())
	if code != 200 {
		t.Fatalf("batch via coordinator: %d %s", code, body)
	}
	var results []WireBatchResult
	if err := json.Unmarshal([]byte(body), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		want := []byte{'b', byte('0' + i)}
		if items := r.Outputs["Result"]; len(items) != 1 || !bytes.Equal(items[0].Data, want) {
			t.Fatalf("result %d outputs = %+v", i, r.Outputs)
		}
	}
	if wp.Stats().Invocations == 0 {
		t.Fatal("worker saw no invocations")
	}

	// Unknown compositions surface as per-request errors from the
	// worker, not a coordinator-side 400.
	code, body = post(t, coord.URL+"/invoke/Ghost?input=In", nil, []byte("x"))
	if code == 200 {
		t.Fatalf("invoke of unknown composition succeeded: %q", body)
	}
}

// TestCoordinatorSingleTravelsAsBatch: a coordinator single reaches its
// worker as a one-request batch (the worker's Batches gauge rises), and
// a re-sent keyed single is answered from the worker's dedup table
// instead of executing again.
func TestCoordinatorSingleTravelsAsBatch(t *testing.T) {
	tr, coord := newCoordinator(t, "")
	wp, worker := newServer(t)
	registerEcho(t, worker.URL)
	if err := tr.Join("w1", cluster.NewRemoteNode(worker.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}

	before := wp.Stats()
	code, body := post(t, coord.URL+"/invoke/E?input=In", nil, []byte("one"))
	if code != 200 || body != "one" {
		t.Fatalf("single via coordinator: %d %q", code, body)
	}
	after := wp.Stats()
	if got := after.Batches - before.Batches; got != 1 {
		t.Fatalf("worker Batches rose by %d, want 1 (single sent as a batch)", got)
	}

	keyed := map[string]string{IdempotencyKeyHeader: "single-1"}
	for i := 0; i < 2; i++ {
		code, body := post(t, coord.URL+"/invoke/E?input=In", keyed, []byte("keyed"))
		if code != 200 || body != "keyed" {
			t.Fatalf("keyed single %d via coordinator: %d %q", i, code, body)
		}
	}
	st := wp.Stats()
	if inv, hits := st.Invocations-after.Invocations, st.DedupHits-after.DedupHits; inv != 1 || hits != 1 {
		t.Fatalf("keyed re-send: invocations=%d dedup hits=%d, want 1/1", inv, hits)
	}
}
