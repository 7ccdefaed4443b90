package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/sched"
)

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0: a layer a workload does not use
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is a point-in-time reading of the process's resources. The
// generator and every server run in this one process, so the CPU and
// allocation figures include the generator's share, which is the same
// on every commit.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: runtimeMetric("/gc/heap/allocs:bytes"),
	}
}

// liveHeap is the heap marked live by the most recent GC cycle.
func liveHeap() uint64 { return runtimeMetric("/gc/heap/live:bytes") }

func runtimeMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counters is a Stats snapshot summed over the nodes of a deployment,
// plus the cluster manager's routing counters.
type counters struct {
	invocations, batches, commCompleted      uint64
	copiedBytes, reuses, allocs              uint64
	journalAppends, dedupHits, expired, shed uint64
	journalBytes, peakCommitted              int64
	computeEngines, commEngines              int
	tenants                                  map[string]sched.TenantStats
	retries, rerouted, breakerTrips          uint64
}

// snapshot reads the executing nodes' Stats and the shed counters of
// every node (a coordinator sheds at its own frontend).
func snapshot(nodes, all []*dandelion.Platform, mgr *cluster.Manager) counters {
	var c counters
	var lists [][]sched.TenantStats
	for _, p := range nodes {
		s := p.Stats()
		c.invocations += s.Invocations
		c.batches += s.Batches
		c.commCompleted += s.CommCompleted
		c.copiedBytes += s.CopiedBytes
		c.reuses += s.PooledContextReuses
		c.allocs += s.PooledContextAllocs
		c.journalAppends += s.JournalAppends
		c.journalBytes += s.JournalBytes
		c.dedupHits += s.DedupHits
		c.expired += s.Expired
		if s.PeakCommitted > c.peakCommitted {
			c.peakCommitted = s.PeakCommitted
		}
		c.computeEngines += s.ComputeEngines
		c.commEngines += s.CommEngines
		lists = append(lists, s.Tenants)
	}
	for _, p := range all {
		c.shed += p.Stats().Shed
	}
	c.tenants = map[string]sched.TenantStats{}
	for _, ts := range sched.MergeStats(lists...) {
		c.tenants[ts.Tenant] = ts
	}
	if mgr != nil {
		for _, w := range mgr.Stats() {
			c.retries += w.Retries
			c.rerouted += w.Rerouted
			c.breakerTrips += w.BreakerTrips
		}
	}
	return c
}

// waitDelta is one tenant's dispatch-wait average over the tasks
// dispatched between two snapshots, and the p99 gauge at the second.
func waitDelta(before, after counters, tenant string) (avgUS, p99US float64) {
	a, b := after.tenants[tenant], before.tenants[tenant]
	n := float64(a.Dispatched) - float64(b.Dispatched)
	if n <= 0 {
		return 0, 0
	}
	total := float64(a.AvgDispatchWait)*float64(a.Dispatched) - float64(b.AvgDispatchWait)*float64(b.Dispatched)
	return total / n / 1e3, float64(a.P99DispatchWait) / 1e3
}
