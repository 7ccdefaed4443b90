// Precompiled invocation plans. Before this cache, every invoke walked
// a composition re-doing work whose answer never changes between
// registrations: per-statement registry resolution (an RWMutex-guarded
// map lookup), dependency-edge derivation (two map-building passes),
// instance-shape analysis of the all/each/key argument modes, and a
// sha256 over the function binary to find its decoded program. A compPlan resolves all of that once per
// (composition, registry generation): the dispatcher's hot loops then
// run off immutable precomputed state, and the only cross-invoke
// synchronization left is a lock-free sync.Map load.
//
// Plans are invalidated by registry generation, not by hand: any
// successful registration bumps the generation, and planFor rebuilds a
// plan whose generation is stale. A plan with unresolved statements
// (a composition invoked before all of its functions are registered)
// is still returned — the per-statement fallback resolves lazily and
// reports the usual not-registered error — but is not cached, so the
// first invoke after the missing registration sees it.
package core

import (
	"fmt"

	"dandelion/internal/dvm"
	"dandelion/internal/graph"
	"dandelion/internal/memctx"
)

// stmtPlan is one statement's precompiled execution state.
type stmtPlan struct {
	st *graph.Stmt
	// v is the resolved vertex; zero when the statement's function was
	// not registered at plan-build time (resolved per-invoke then).
	v vertex
	// errPrefix is the precomputed wrap prefix for this statement's
	// failures ("core: <comp>: statement <i> (<func>): ").
	errPrefix string
	// batchProg is the content-addressed decoded program every compute
	// chunk of the statement runs (dvm compute functions only; nil for
	// Go functions). Decoded programs are always cached: no execution
	// decodes a binary.
	batchProg *dvm.Program
	// broadcastOnly marks a statement whose arguments are all in `all`
	// mode: it expands to exactly one instance, so the dispatcher can
	// skip the general instance-expansion bookkeeping.
	broadcastOnly bool
}

// wrap prefixes err with the statement's precomputed location label.
func (sp *stmtPlan) wrap(err error) error {
	return fmt.Errorf("%s%w", sp.errPrefix, err)
}

// compPlan is the precompiled invocation plan of one composition.
type compPlan struct {
	comp  *graph.Composition
	gen   uint64 // registry generation the plan was built at
	deps  [][]int
	stmts []stmtPlan
	// complete reports that every statement resolved; only complete
	// plans are cached.
	complete bool
}

// planFor returns the (possibly cached) invocation plan for comp,
// rebuilding when the registry has grown since the plan was built.
func (p *Platform) planFor(comp *graph.Composition) *compPlan {
	gen := p.reg.generation()
	if v, ok := p.plans.Load(comp.Name); ok {
		pl := v.(*compPlan)
		if pl.gen == gen && pl.comp == comp {
			return pl
		}
	}
	pl := p.buildPlan(comp, gen)
	if pl.complete {
		p.plans.Store(comp.Name, pl)
	}
	return pl
}

// buildPlan compiles comp's invocation plan at the given registry
// generation.
func (p *Platform) buildPlan(comp *graph.Composition, gen uint64) *compPlan {
	pl := &compPlan{
		comp:     comp,
		gen:      gen,
		deps:     comp.Deps(),
		stmts:    make([]stmtPlan, len(comp.Stmts)),
		complete: true,
	}
	for i := range comp.Stmts {
		st := &comp.Stmts[i]
		sp := &pl.stmts[i]
		sp.st = st
		sp.errPrefix = fmt.Sprintf("core: %s: statement %d (%s): ", comp.Name, i, st.Func)
		sp.broadcastOnly = true
		for _, a := range st.Args {
			if a.Mode != graph.All {
				sp.broadcastOnly = false
				break
			}
		}
		v, err := p.reg.resolve(st.Func)
		if err != nil {
			pl.complete = false
			continue
		}
		sp.v = v
		if v.fn != nil {
			if v.fn.Binary != nil {
				prog, err := p.programs.getByKey(v.fn.progKey, v.fn.Binary)
				if err != nil {
					// Registration already decoded this binary, so a
					// decode failure here means cache churn; fall back
					// to per-invoke resolution rather than caching a
					// broken plan.
					pl.complete = false
					continue
				}
				sp.batchProg = prog
			}
		}
	}
	return pl
}

// resolveStmt returns the statement's vertex, falling back to a live
// registry lookup for plans built before the function was registered.
func (p *Platform) resolveStmt(sp *stmtPlan) (vertex, error) {
	if !sp.v.zero() {
		return sp.v, nil
	}
	return p.reg.resolve(sp.st.Func)
}

// singleInstance builds the one instance of a broadcast-only statement
// without the general split/regroup machinery.
func singleInstance(args []graph.Arg, items [][]memctx.Item) instance {
	inst := make(instance, len(args))
	for ai, a := range args {
		inst[ai] = memctx.Set{Name: a.Param, Items: items[ai]}
	}
	return inst
}
