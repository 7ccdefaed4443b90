package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
)

// runCfg describes one deployment to build.
type runCfg struct {
	seed            int64
	warmup, measure time.Duration
	rec             *recorder // nil: untraced
	dir             string    // scratch directory for journals
}

// env is one freshly built deployment and the generator streams that
// drive it. Every deployment is built in-process the way cmd/dandelion
// builds a node with its default flags (cheri backend, -balance,
// -cache-binaries) plus the flags the workload names.
type env struct {
	streams     []*stream
	interactive int                   // index of the stream behind interactive.*
	nodes       []*dandelion.Platform // nodes that execute invocations
	all         []*dandelion.Platform // every node, coordinator included
	mgr         *cluster.Manager
	setup       time.Duration // platform construction to every composition's first validated response
	// corrupt flips one byte of every expectation the checks compare
	// against; the benchmark's own test sets it after set-up to show
	// that a wrong expectation fails the run.
	corrupt atomic.Bool
	stops   []func()
}

func (e *env) close() {
	for i := len(e.stops) - 1; i >= 0; i-- {
		e.stops[i]()
	}
	e.stops = nil
}

// expect returns want, or a copy with its first byte flipped when the
// env is corrupted.
func (e *env) expect(want []byte) []byte {
	if !e.corrupt.Load() || len(want) == 0 {
		return want
	}
	w := append([]byte(nil), want...)
	w[0] ^= 0xff
	return w
}

// serve runs h on a loopback port until the env closes.
func (e *env) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# server %s: %v\n", ln.Addr(), err)
		}
	}()
	e.stops = append(e.stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// platform builds one node and shuts it down with the env.
func (e *env) platform(opts dandelion.Options) (*dandelion.Platform, error) {
	opts.Backend = "cheri"
	opts.Balance = true
	opts.CacheBinaries = true
	p, err := dandelion.New(opts)
	if err != nil {
		return nil, err
	}
	e.stops = append(e.stops, p.Shutdown)
	return p, nil
}

// setupRequests are the request indices every stream sends during
// set-up. Streams map negative indices onto each kind of request they
// send (-1, -2, ...), so set-up reaches every composition once.
var setupRequests = []int{-1, -2}

// setupID names set-up request i of stream si; no measured request
// uses these ids.
func setupID(si, i int) uint64 { return uint64(si+1)<<40 | uint64(-i) }

// firstResponses sends the set-up requests of every stream and fails
// unless every output is correct.
func (e *env) firstResponses() error {
	c := newClient()
	defer c.CloseIdleConnections()
	for si, s := range e.streams {
		for _, i := range setupRequests {
			out := s.send(c, i, setupID(si, i), false)
			if out.ok != out.invs || out.invs == 0 {
				return fmt.Errorf("set-up: first %s request: %d of %d invocations correct (%s)", s.name, out.ok, out.invs, out.err)
			}
		}
	}
	return nil
}
