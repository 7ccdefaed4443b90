package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// nSlices is how many equal slices a measured phase is cut into for
// drift.throughput_last_over_first.
const nSlices = 5

// ival is a wall-clock interval.
type ival struct{ start, end time.Time }

// outcome is what one generator request observed. Every invocation it
// carried is counted exactly once in ok, wrong or failed.
type outcome struct {
	invs, ok, wrong, failed int
	bytes                   int64 // request plus response payload bytes
	enc, dec                ival  // client wire codec time (batch routes only)
	err                     string
}

// stream is one traffic source of a workload. Each connection is
// driven by its own goroutine over its own single-connection client,
// so a stream never has more than conns requests in flight.
type stream struct {
	name  string
	conns int
	// rate > 0 makes the stream open loop at rate arrivals/s, timed
	// from each arrival's due time; rate == 0 makes it closed loop,
	// timed from send.
	rate float64
	// batch marks streams whose requests carry several invocations on
	// /invoke-batch/.
	batch bool
	// send issues request i. id names the request in traces; traced
	// asks send to put it on the wire.
	send func(c *http.Client, i int, id uint64, traced bool) outcome
}

// reqID names request i of stream si across every span it causes.
func reqID(si, i int) uint64 { return uint64(si+1)<<32 | uint64(i) }

// newClient opens at most one connection to any host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// checkConns refuses generators that would open more connections (and
// so more sending goroutines) than the machine has CPUs.
func checkConns(streams []*stream) error {
	n := 0
	for _, s := range streams {
		n += s.conns
	}
	if n > runtime.NumCPU() {
		return fmt.Errorf("generator wants %d connections but nproc is %d", n, runtime.NumCPU())
	}
	return nil
}

// post sends one request and returns the whole response body.
func post(c *http.Client, url, ctype string, hdr map[string]string, body []byte, id uint64, traced bool) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if traced {
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// record is one measured request.
type record struct {
	stream          int
	id              uint64
	due, sent, done time.Time
	out             outcome
}

// window is how many consecutive requests one latency window holds:
// enough for ten samples past p99.
const window = 1000

// windows is the q-quantile latency of each window of consecutive
// requests; a trailing partial window joins the one before it.
func windows(lat []float64, q float64) []float64 {
	n := max(len(lat)/window, 1)
	out := make([]float64, n)
	for k := range out {
		hi := (k + 1) * window
		if k == n-1 {
			hi = len(lat)
		}
		out[k] = quantile(lat[k*window:hi], q)
	}
	return out
}

// streamStats aggregates one stream's measured requests.
type streamStats struct {
	batch                   bool
	lat, late               []float64 // ms, in due order; latency from due (open) or send (closed)
	enc, dec                []float64 // µs
	requests                int
	invs, ok, wrong, failed int
	bytes                   int64
}

// slice is one equal part of a measured phase and the correct
// invocations of the requests that completed in it.
type slice struct {
	dur time.Duration
	ok  int
}

// phase is one measured run of a deployment.
type phase struct {
	elapsed       time.Duration // measured start to last measured completion
	streams       []*streamStats
	records       []record
	slices        [nSlices]slice
	cpu           time.Duration
	alloc         uint64
	heapPeak      uint64
	before, after counters
	errs          []string // first few failure messages
}

func (ph *phase) totals() (invs, ok, wrong, failed, requests int, bytes int64) {
	for _, s := range ph.streams {
		invs += s.invs
		ok += s.ok
		wrong += s.wrong
		failed += s.failed
		requests += s.requests
		bytes += s.bytes
	}
	return
}

// runPhase drives every stream of e for warmup plus measure and
// aggregates the requests due (open loop) or sent (closed loop) inside
// the measured window. Resource and Stats readings bracket the
// measured window.
func runPhase(e *env, warmup, measure time.Duration, traced bool) (*phase, error) {
	if err := checkConns(e.streams); err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)
	mStart := start.Add(warmup)
	end := mStart.Add(measure)
	ph := &phase{streams: make([]*streamStats, len(e.streams))}

	var (
		mu      sync.Mutex
		records []record
		wg      sync.WaitGroup
	)
	for si, s := range e.streams {
		var next atomic.Int64
		for c := 0; c < s.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := newClient()
				defer client.CloseIdleConnections()
				var mine []record
				for {
					i := int(next.Add(1) - 1)
					var due, sent time.Time
					if s.rate > 0 {
						due = start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
						if !due.Before(end) {
							break
						}
						if d := time.Until(due); d > 0 {
							time.Sleep(d)
						}
						sent = time.Now()
					} else {
						sent = time.Now()
						if !sent.Before(end) {
							break
						}
						due = sent
					}
					id := reqID(si, i)
					out := s.send(client, i, id, traced)
					done := time.Now()
					if due.Before(mStart) {
						continue
					}
					mine = append(mine, record{stream: si, id: id, due: due, sent: sent, done: done, out: out})
				}
				mu.Lock()
				records = append(records, mine...)
				mu.Unlock()
			}()
		}
	}

	// One sampler reads resources and Stats as the measured window opens
	// and marks its slice boundaries; another tracks the live heap.
	stop := make(chan struct{})
	var samplers sync.WaitGroup
	var bounds [nSlices + 1]time.Time
	var u0 usage
	samplers.Add(2)
	go func() {
		defer samplers.Done()
		for k := 0; k <= nSlices; k++ {
			time.Sleep(time.Until(mStart.Add(measure * time.Duration(k) / nSlices)))
			if k == 0 {
				ph.before = snapshot(e.nodes, e.all, e.mgr)
				u0 = readUsage()
			}
			bounds[k] = time.Now()
		}
	}()
	go func() {
		defer samplers.Done()
		time.Sleep(time.Until(mStart))
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := liveHeap(); h > ph.heapPeak {
				ph.heapPeak = h
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	wg.Wait()
	close(stop)
	samplers.Wait()
	ph.after = snapshot(e.nodes, e.all, e.mgr)
	u1 := readUsage()
	ph.cpu = u1.cpu - u0.cpu
	ph.alloc = u1.alloc - u0.alloc
	for k := 0; k < nSlices; k++ {
		ph.slices[k].dur = bounds[k+1].Sub(bounds[k])
	}
	at := func(t time.Time) int { // the slice t falls in, or -1
		for k := 0; k < nSlices; k++ {
			if !t.Before(bounds[k]) && t.Before(bounds[k+1]) {
				return k
			}
		}
		return -1
	}

	sort.Slice(records, func(i, j int) bool { return records[i].due.Before(records[j].due) })
	ph.records = records
	var last time.Time
	for _, r := range records {
		if r.done.After(last) {
			last = r.done
		}
	}
	ph.elapsed = last.Sub(mStart)
	if ph.elapsed < measure {
		ph.elapsed = measure
	}
	for si, s := range e.streams {
		ph.streams[si] = &streamStats{batch: s.batch}
	}
	for _, r := range records {
		st := ph.streams[r.stream]
		st.requests++
		st.lat = append(st.lat, ms(r.done.Sub(r.due)))
		st.late = append(st.late, ms(r.sent.Sub(r.due)))
		if !r.out.enc.start.IsZero() {
			st.enc = append(st.enc, us(r.out.enc.end.Sub(r.out.enc.start)))
		}
		if !r.out.dec.start.IsZero() {
			st.dec = append(st.dec, us(r.out.dec.end.Sub(r.out.dec.start)))
		}
		st.invs += r.out.invs
		st.ok += r.out.ok
		st.wrong += r.out.wrong
		st.failed += r.out.failed
		st.bytes += r.out.bytes
		if k := at(r.done); k >= 0 {
			ph.slices[k].ok += r.out.ok
		}
		if r.out.err != "" && len(ph.errs) < 5 {
			ph.errs = append(ph.errs, r.out.err)
		}
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
