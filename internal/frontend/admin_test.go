package frontend

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/autoscale"
	"dandelion/internal/cluster"
)

const testAdminToken = "sekrit"

// newAdminServer builds a frontend with the admin surface enabled and a
// two-worker cluster attached (the frontend's own platform is worker
// "w1").
func newAdminServer(t *testing.T) (*dandelion.Platform, *dandelion.Platform, *httptest.Server) {
	t.Helper()
	w1, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w1.Shutdown)
	w2, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Shutdown)
	m := cluster.NewManager(cluster.RoundRobin)
	if err := m.Register("w1", w1.Platform); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("w2", w2.Platform); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWithConfig(w1, Config{AdminToken: testAdminToken, Cluster: m}))
	t.Cleanup(srv.Close)
	return w1, w2, srv
}

// adminDo issues one admin request with the token attached.
func adminDo(t *testing.T, method, url string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+testAdminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestAdminAuth(t *testing.T) {
	_, _, srv := newAdminServer(t)

	// No token → 401; wrong token → 401; X-Admin-Token works too.
	for _, hdr := range []map[string]string{
		nil,
		{"Authorization": "Bearer wrong"},
		{"X-Admin-Token": "also-wrong"},
	} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/admin/engines", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("headers %v → %d, want 401", hdr, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/admin/engines", nil)
	req.Header.Set(AdminTokenHeader, testAdminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Admin-Token auth = %d, want 200", resp.StatusCode)
	}

	// A frontend without an admin token disables the surface entirely.
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	bare := httptest.NewServer(New(p))
	t.Cleanup(bare.Close)
	code, body := adminDo(t, http.MethodGet, bare.URL+"/admin/engines", nil)
	if code != http.StatusForbidden || !strings.Contains(body, "disabled") {
		t.Fatalf("tokenless admin = %d %s, want 403 disabled", code, body)
	}
}

// TestAdminTenantWeightFansOutToCluster is the acceptance-criterion
// core: one PUT on the frontend changes the DRR weight — and with it
// the observed dispatch share — on every registered cluster worker,
// without restarting anything.
func TestAdminTenantWeightFansOutToCluster(t *testing.T) {
	w1, w2, srv := newAdminServer(t)

	// Make a competitor active on both workers so shares are fractional.
	w1.SetTenantWeight("bob", 1)
	w2.SetTenantWeight("bob", 1)

	code, body := adminDo(t, http.MethodPut, srv.URL+"/admin/tenants/alice",
		[]byte(`{"weight": 3}`))
	if code != http.StatusOK {
		t.Fatalf("PUT weight = %d %s", code, body)
	}
	var view struct {
		Tenant  string `json:"tenant"`
		Weight  int    `json:"weight"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.Tenant != "alice" || view.Weight != 3 || view.Workers != 2 {
		t.Fatalf("PUT response = %+v, want alice/3 applied to 2 workers", view)
	}
	for i, w := range []*dandelion.Platform{w1, w2} {
		if got := w.TenantWeight("alice"); got != 3 {
			t.Fatalf("worker %d weight = %d, want 3", i+1, got)
		}
	}

	// GET reads it back, including the dispatch share.
	code, body = adminDo(t, http.MethodGet, srv.URL+"/admin/tenants/alice", nil)
	if code != http.StatusOK || !strings.Contains(body, `"weight":3`) {
		t.Fatalf("GET tenant = %d %s", code, body)
	}

	// Bad weights are client errors, never applied.
	code, _ = adminDo(t, http.MethodPut, srv.URL+"/admin/tenants/alice", []byte(`{"weight": 0}`))
	if code != http.StatusBadRequest {
		t.Fatalf("PUT weight 0 = %d, want 400", code)
	}
	if got := w1.TenantWeight("alice"); got != 3 {
		t.Fatalf("weight after rejected PUT = %d, want 3", got)
	}
	code, _ = adminDo(t, http.MethodPut, srv.URL+"/admin/tenants/alice", []byte(`{oops`))
	if code != http.StatusBadRequest {
		t.Fatalf("PUT bad json = %d, want 400", code)
	}
	code, _ = adminDo(t, http.MethodGet, srv.URL+"/admin/tenants/", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("GET empty tenant = %d, want 400", code)
	}
}

func TestAdminEnginesRoundTrip(t *testing.T) {
	w1, _, srv := newAdminServer(t)

	code, body := adminDo(t, http.MethodGet, srv.URL+"/admin/engines", nil)
	if code != http.StatusOK {
		t.Fatalf("GET engines = %d %s", code, body)
	}
	var view adminEnginesView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if *view.Compute < 1 || *view.Comm < 1 {
		t.Fatalf("engines view = %+v", view)
	}

	// Resize + clamp override in one PUT; omitted fields unchanged.
	code, body = adminDo(t, http.MethodPut, srv.URL+"/admin/engines",
		[]byte(`{"compute": 4, "admission_max": 16}`))
	if code != http.StatusOK {
		t.Fatalf("PUT engines = %d %s", code, body)
	}
	if c, _ := w1.EngineCounts(); c != 4 {
		t.Fatalf("compute engines = %d, want 4", c)
	}
	if _, max := w1.AdmissionClamp(); max != 16 {
		t.Fatalf("admission max = %d, want 16", max)
	}

	// Invalid counts rejected.
	code, _ = adminDo(t, http.MethodPut, srv.URL+"/admin/engines", []byte(`{"compute": 0}`))
	if code != http.StatusBadRequest {
		t.Fatalf("PUT compute 0 = %d, want 400", code)
	}
}

// TestAdminEnginesAutoscaleToggleOrder: one PUT carrying both the
// autoscale-off toggle and a resize applies the toggle first, so the
// resize is not clamped into the controller's bounds the operator is
// opting out of.
func TestAdminEnginesAutoscaleToggleOrder(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{
		ComputeEngines: 2,
		Autoscale:      true,
		AutoscaleMax:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	srv := httptest.NewServer(NewWithConfig(p, Config{AdminToken: testAdminToken}))
	t.Cleanup(srv.Close)

	// While autoscale is on, resizes clamp into [Min, Max].
	code, body := adminDo(t, http.MethodPut, srv.URL+"/admin/engines", []byte(`{"compute": 9}`))
	if code != http.StatusOK {
		t.Fatalf("PUT = %d %s", code, body)
	}
	if c, _ := p.EngineCounts(); c != 4 {
		t.Fatalf("compute while autoscale on = %d, want clamped to 4", c)
	}
	// Toggle off + resize in one request: the manual size wins.
	code, body = adminDo(t, http.MethodPut, srv.URL+"/admin/engines",
		[]byte(`{"autoscale": false, "compute": 9}`))
	if code != http.StatusOK || !strings.Contains(body, `"compute":9`) {
		t.Fatalf("PUT toggle+resize = %d %s", code, body)
	}
	if c, _ := p.EngineCounts(); c != 9 {
		t.Fatalf("compute after toggle+resize = %d, want 9", c)
	}
}

// TestAdminAdmissionClampActsOnInjectedAdmission: when an embedder
// injects a custom admission plane (Config.Admission), the admin
// clamp routes read and mutate that plane — the one the batch route
// actually splits with — not the platform's default.
func TestAdminAdmissionClampActsOnInjectedAdmission(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	adm := autoscale.NewAdmission(autoscale.AdmissionConfig{MaxBatch: 32})
	srv := httptest.NewServer(NewWithConfig(p, Config{AdminToken: testAdminToken, Admission: adm}))
	t.Cleanup(srv.Close)

	code, body := adminDo(t, http.MethodPut, srv.URL+"/admin/engines", []byte(`{"admission_max": 8}`))
	if code != http.StatusOK || !strings.Contains(body, `"admission_max":8`) {
		t.Fatalf("PUT admission_max = %d %s", code, body)
	}
	if _, max := adm.Clamp(); max != 8 {
		t.Fatalf("injected admission clamp max = %d, want 8", max)
	}
	if _, max := p.AdmissionClamp(); max != 64 {
		t.Fatalf("platform default admission mutated: max = %d, want untouched 64", max)
	}
}

func TestAdminDrainResumeOverHTTP(t *testing.T) {
	w1, _, srv := newAdminServer(t)
	if err := w1.RegisterFunction(dandelion.ComputeFunc{Name: "Echo", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	code, body := adminDo(t, http.MethodPost, srv.URL+"/admin/drain", nil)
	if code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("drain = %d %s", code, body)
	}
	// Both invocation routes refuse with 503 while draining.
	code, _ = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("x"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("invoke while draining = %d, want 503", code)
	}
	code, _ = post(t, srv.URL+"/invoke-batch/E", nil, []byte(`[{"inputs":{"In":[{"data":"eA=="}]}}]`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining = %d, want 503", code)
	}

	// resume=0/false is an explicit drain, not a resume; garbage is 400.
	code, body = adminDo(t, http.MethodPost, srv.URL+"/admin/drain?resume=0", nil)
	if code != http.StatusOK || !strings.Contains(body, `"draining":true`) {
		t.Fatalf("drain with resume=0 = %d %s, want still draining", code, body)
	}
	code, _ = adminDo(t, http.MethodPost, srv.URL+"/admin/drain?resume=banana", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("drain with resume=banana = %d, want 400", code)
	}

	code, body = adminDo(t, http.MethodPost, srv.URL+"/admin/drain?resume=1", nil)
	if code != http.StatusOK || !strings.Contains(body, `"draining":false`) {
		t.Fatalf("resume = %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("back"))
	if code != http.StatusOK || body != "back" {
		t.Fatalf("invoke after resume = %d %q", code, body)
	}
}

// TestClusterStatsEndpoint drives tenant-tagged work onto both workers
// directly, then asserts GET /stats/cluster merges the per-tenant
// gauges across them.
func TestClusterStatsEndpoint(t *testing.T) {
	w1, w2, srv := newAdminServer(t)
	for _, w := range []*dandelion.Platform{w1, w2} {
		if err := w.RegisterFunction(dandelion.ComputeFunc{Name: "Echo", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.InvokeAs("alice", "E", map[string][]dandelion.Item{
				"In": {{Name: "i", Data: []byte("x")}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		// The scheduler books a task's completion just after its result
		// is delivered, so InvokeAs can return a moment before alice's
		// Completed gauge counts it: wait for the books to close.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			running := 0
			for _, ts := range w.Stats().Tenants {
				running += ts.Running
			}
			if running == 0 {
				break
			}
		}
	}

	resp, err := http.Get(srv.URL + "/stats/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats/cluster = %d", resp.StatusCode)
	}
	var cs cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.Workers != 2 || cs.Reporting != 2 {
		t.Fatalf("workers/reporting = %d/%d, want 2/2", cs.Workers, cs.Reporting)
	}
	if cs.Invocations != 6 {
		t.Fatalf("cluster invocations = %d, want 6", cs.Invocations)
	}
	var alice *dandelion.TenantStats
	for i := range cs.Tenants {
		if cs.Tenants[i].Tenant == "alice" {
			alice = &cs.Tenants[i]
		}
	}
	if alice == nil || alice.Completed < 6 {
		t.Fatalf("merged alice gauges = %+v", alice)
	}

	// Without a cluster manager the endpoint 404s.
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	bare := httptest.NewServer(New(p))
	t.Cleanup(bare.Close)
	resp, err = http.Get(bare.URL + "/stats/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare stats/cluster = %d, want 404", resp.StatusCode)
	}
}
