package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dandelion"
	"dandelion/internal/workloads"
)

// Spans are recorded only by the benchmark's own wrappers around the
// calls into each layer: generator requests, frontend handler
// middleware, wrapped ComputeFuncs, wrapped mock services and the
// coordinator's outgoing transport. The program itself is unchanged.
//
// A span's parent names the layer that caused it. Spans of one request
// share its id; the id travels in traceHeader between processes of the
// deployment, and inside the logs-open application in its per-request
// access token. A wrapper that cannot see the id (a compute function of
// mixed-bulk, whose inputs carry none) records the generator stream
// instead, and analysis assigns the span to that stream's request whose
// frontend span contains it; each such stream has one request in
// flight at a time.
const traceHeader = "X-Bench-Trace"

type span struct {
	id           uint64
	stream       string
	parent, name string
	start, end   time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type traceKey struct{}

// handler is frontend middleware: it records the handler span of every
// traced request and puts the id on the request context, where the
// coordinator's outgoing transport finds it.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseUint(req.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), traceKey{}, id)))
		parent := "request"
		if name == "worker" {
			parent = "frontend"
		}
		r.add(span{id: id, parent: parent, name: name, start: start, end: time.Now()})
	})
}

// service wraps a mock service; idOf reads the request id off the
// request the application sent.
func (r *recorder) service(name string, idOf func(*http.Request) uint64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := idOf(req)
		if id != 0 {
			w.Header().Set(traceHeader, strconv.FormatUint(id, 10))
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(span{id: id, parent: "frontend", name: name, start: start, end: time.Now()})
	})
}

// transport carries the id of the frontend request being served from
// the request context onto outgoing requests (coordinator → worker).
type transport struct{ base http.RoundTripper }

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(traceKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(req)
}

// registrar wraps every Go ComputeFunc registered through it.
type registrar struct {
	workloads.Registrar
	rec *recorder
	// idOf reads the request id off a function's inputs (0 if absent);
	// stream names the generator stream whose requests run fn.
	idOf   func(fn string, in []dandelion.Set) uint64
	stream func(fn string) string
}

// wrap returns p itself when untraced, so untraced runs register the
// functions unchanged.
func wrap(p workloads.Registrar, rec *recorder, idOf func(string, []dandelion.Set) uint64, stream func(string) string) workloads.Registrar {
	if rec == nil {
		return p
	}
	return registrar{Registrar: p, rec: rec, idOf: idOf, stream: stream}
}

func (r registrar) RegisterFunction(f dandelion.ComputeFunc) error {
	if inner := f.Go; inner != nil {
		name := f.Name
		f.Go = func(in []dandelion.Set) ([]dandelion.Set, error) {
			start := time.Now()
			out, err := inner(in)
			end := time.Now()
			s := span{parent: "frontend", name: "compute." + name, start: start, end: end}
			if r.idOf != nil {
				s.id = r.idOf(name, in)
			}
			if s.id == 0 && r.stream != nil {
				s.stream = r.stream(name)
			}
			r.rec.add(s)
			return out, err
		}
	}
	return r.Registrar.RegisterFunction(f)
}

// idAfter parses the decimal id following the first marker in b.
func idAfter(b []byte, marker string) uint64 {
	i := bytes.Index(b, []byte(marker))
	if i < 0 {
		return 0
	}
	b = b[i+len(marker):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	id, _ := strconv.ParseUint(string(b[:j]), 10, 64) // 0 when absent
	return id
}

// addRequests records the generator's spans of a traced phase: the
// request itself (from its due time), the time it waited past its due
// time, and the client's wire codec.
func (r *recorder) addRequests(e *env, recs []record) {
	for _, rc := range recs {
		st := e.streams[rc.stream].name
		r.add(span{id: rc.id, stream: st, name: "request", start: rc.due, end: rc.done})
		if rc.sent.After(rc.due) {
			r.add(span{id: rc.id, parent: "request", name: "loadgen.late", start: rc.due, end: rc.sent})
		}
		if !rc.out.enc.start.IsZero() {
			r.add(span{id: rc.id, parent: "request", name: "wire.client_encode", start: rc.out.enc.start, end: rc.out.enc.end})
		}
		if !rc.out.dec.start.IsZero() {
			r.add(span{id: rc.id, parent: "request", name: "wire.client_decode", start: rc.out.dec.start, end: rc.out.dec.end})
		}
	}
}

// write stores the spans as tab-separated lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	var t0 time.Time
	for _, s := range r.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start.Sub(t0), s.end.Sub(t0))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// intervals is a sorted, disjoint set of intervals in ns.
type intervals [][2]int64

func unionOf(spans []span, t0 time.Time, keep func(span) bool) intervals {
	var iv intervals
	for _, s := range spans {
		if keep(s) {
			iv = append(iv, [2]int64{int64(s.start.Sub(t0)), int64(s.end.Sub(t0))})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out intervals
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			if x[1] > out[n-1][1] {
				out[n-1][1] = x[1]
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func (iv intervals) size() int64 {
	var n int64
	for _, x := range iv {
		n += x[1] - x[0]
	}
	return n
}

// overlap is the length of iv ∩ o.
func (iv intervals) overlap(o intervals) int64 {
	var n int64
	i, j := 0, 0
	for i < len(iv) && j < len(o) {
		lo, hi := max(iv[i][0], o[j][0]), min(iv[i][1], o[j][1])
		if hi > lo {
			n += hi - lo
		}
		if iv[i][1] < o[j][1] {
			i++
		} else {
			j++
		}
	}
	return n
}

// selfLayers are the layers of the self-time breakdown. Every instant
// of a request is charged to the deepest layer whose span covers it;
// the instants no layer covers are unattributed (the HTTP client and
// server stacks and the loopback transport).
var selfLayers = []string{"loadgen_late", "client_wire", "frontend", "worker", "compute", "service", "unattributed"}

func layerOf(name string) string {
	switch {
	case name == "loadgen.late":
		return "loadgen_late"
	case strings.HasPrefix(name, "wire.client"):
		return "client_wire"
	case name == "frontend" || name == "worker":
		return name
	case strings.HasPrefix(name, "compute."):
		return "compute"
	case strings.HasPrefix(name, "service."):
		return "service"
	}
	return ""
}

// analysis is the per-layer view of one traced phase.
type analysis struct {
	requests     int
	self         map[string]float64 // mean µs per request
	unattributed float64            // share of request time no layer covers
	named        map[string][]float64
}

func analyze(spans []span) analysis {
	byID := map[uint64][]span{}
	var roots []span
	var orphans []span
	for _, s := range spans {
		switch {
		case s.name == "request":
			roots = append(roots, s)
			byID[s.id] = append(byID[s.id], s)
		case s.id != 0:
			byID[s.id] = append(byID[s.id], s)
		default:
			orphans = append(orphans, s)
		}
	}
	// Assign id-less spans to their stream's request whose frontend
	// span contains them.
	fronts := map[string][]span{} // stream -> frontend spans by start
	streamOf := map[uint64]string{}
	for _, r := range roots {
		streamOf[r.id] = r.stream
	}
	for id, ss := range byID {
		for _, s := range ss {
			if s.name == "frontend" {
				fronts[streamOf[id]] = append(fronts[streamOf[id]], s)
			}
		}
	}
	for _, f := range fronts {
		sort.Slice(f, func(i, j int) bool { return f[i].start.Before(f[j].start) })
	}
	for _, s := range orphans {
		f := fronts[s.stream]
		k := sort.Search(len(f), func(i int) bool { return f[i].start.After(s.start) }) - 1
		if k >= 0 && !f[k].end.Before(s.end) {
			s.id = f[k].id
			byID[s.id] = append(byID[s.id], s)
		}
	}

	a := analysis{self: map[string]float64{}, named: map[string][]float64{}}
	var total, unattributed int64
	for _, root := range roots {
		ss := byID[root.id]
		t0 := root.start
		clip := intervals{{0, int64(root.end.Sub(t0))}}
		in := func(layer string) intervals {
			return unionOf(ss, t0, func(s span) bool { return layerOf(s.name) == layer })
		}
		deep := unionOf(ss, t0, func(s span) bool {
			l := layerOf(s.name)
			return l == "compute" || l == "service"
		})
		below := unionOf(ss, t0, func(s span) bool {
			l := layerOf(s.name)
			return l == "worker" || l == "compute" || l == "service"
		})
		workers := in("worker")
		front := in("frontend")
		all := unionOf(ss, t0, func(s span) bool { return s.name != "request" })
		self := map[string]int64{
			"loadgen_late": in("loadgen_late").overlap(clip),
			"client_wire":  in("client_wire").overlap(clip),
			"compute":      in("compute").overlap(clip),
			"service":      in("service").overlap(clip),
			"worker":       workers.size() - workers.overlap(deep),
			"frontend":     front.size() - front.overlap(below),
			"unattributed": clip.size() - all.overlap(clip),
		}
		a.requests++
		total += clip.size()
		unattributed += self["unattributed"]
		for l, v := range self {
			a.self[l] += float64(v) / 1e3
		}
		a.named["frontend.overhead_us"] = append(a.named["frontend.overhead_us"], float64(self["frontend"])/1e3)

		var fr, wmax, wmin time.Duration
		nw := 0
		for _, s := range ss {
			switch {
			case s.name == "frontend":
				fr = s.dur()
			case s.name == "worker":
				d := s.dur()
				if nw == 0 || d > wmax {
					wmax = d
				}
				if nw == 0 || d < wmin {
					wmin = d
				}
				nw++
			}
			if s.name != "request" {
				a.named[s.name] = append(a.named[s.name], us(s.dur()))
			}
		}
		if nw > 0 && fr > 0 {
			a.named["cluster.hop_us"] = append(a.named["cluster.hop_us"], us(fr-wmax))
		}
		if nw > 1 && wmin > 0 {
			a.named["cluster.chunk_skew"] = append(a.named["cluster.chunk_skew"], float64(wmax)/float64(wmin))
		}
		// Communication overhead: the gaps between a request's compute
		// spans that its service calls do not cover.
		if services := in("service"); len(services) > 0 {
			comp := in("compute")
			var gaps intervals
			for k := 1; k < len(comp); k++ {
				gaps = append(gaps, [2]int64{comp[k-1][1], comp[k][0]})
			}
			a.named["comm.overhead_us"] = append(a.named["comm.overhead_us"], float64(gaps.size()-gaps.overlap(services))/1e3)
		}
	}
	for l := range a.self {
		a.self[l] /= float64(max(a.requests, 1))
	}
	a.unattributed = ratio(float64(unattributed), float64(total))
	return a
}

// rewind reads a request body for a wrapper and puts it back for the
// wrapped service.
func rewind(req *http.Request) []byte {
	b, _ := io.ReadAll(req.Body) // a short read leaves the service to reject the body
	req.Body = io.NopCloser(bytes.NewReader(b))
	return b
}
