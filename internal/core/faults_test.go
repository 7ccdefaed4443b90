package core

import (
	"errors"
	"strings"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// These tests exercise the §4.4 fault-handling semantics: functions run
// only when every non-optional input set has at least one item, so a
// composition can route failures down a dedicated error branch and skip
// the happy path (or vice versa).

// validate emits items either into "Ok" or into "Errors" depending on
// the input's prefix.
func validate(in []memctx.Set) ([]memctx.Set, error) {
	ok := memctx.Set{Name: "Ok"}
	errs := memctx.Set{Name: "Errors"}
	for _, s := range in {
		for _, it := range s.Items {
			if strings.HasPrefix(string(it.Data), "bad:") {
				errs.Items = append(errs.Items, memctx.Item{
					Name: it.Name, Data: []byte("invalid " + string(it.Data)),
				})
			} else {
				ok.Items = append(ok.Items, it)
			}
		}
	}
	return []memctx.Set{ok, errs}, nil
}

func tag(prefix string) GoFunc {
	return func(in []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for _, s := range in {
			for _, it := range s.Items {
				out.Items = append(out.Items, memctx.Item{
					Name: it.Name, Data: append([]byte(prefix), it.Data...),
				})
			}
		}
		return []memctx.Set{out}, nil
	}
}

func faultPlatform(t *testing.T) *Platform {
	t.Helper()
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Validate", Go: validate})
	p.RegisterFunction(ComputeFunc{Name: "Process", Go: tag("processed:")})
	p.RegisterFunction(ComputeFunc{Name: "HandleError", Go: tag("handled:")})
	p.RegisterFunction(ComputeFunc{Name: "Summarize", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for _, s := range in {
			out.Items = append(out.Items, s.Items...)
		}
		return []memctx.Set{out}, nil
	}})
	if _, err := p.RegisterCompositionText(`
composition Robust(In) => Report {
    Validate(x = all In) => (good = Ok, bad = Errors);
    Process(x = all good) => (done = Out);
    HandleError(x = all bad) => (recovered = Out);
    Summarize(a = optional all done, b = optional all recovered) => (Report = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHappyPathSkipsErrorBranch(t *testing.T) {
	p := faultPlatform(t)
	out, err := call(p, "Robust", map[string][]memctx.Item{
		"In": {{Name: "a", Data: []byte("fine")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out["Report"]
	if len(rep) != 1 || string(rep[0].Data) != "processed:fine" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestErrorBranchSkipsHappyPath(t *testing.T) {
	p := faultPlatform(t)
	out, err := call(p, "Robust", map[string][]memctx.Item{
		"In": {{Name: "a", Data: []byte("bad:token")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out["Report"]
	if len(rep) != 1 || string(rep[0].Data) != "handled:invalid bad:token" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMixedInputsTakeBothBranches(t *testing.T) {
	p := faultPlatform(t)
	out, err := call(p, "Robust", map[string][]memctx.Item{
		"In": {
			{Name: "a", Data: []byte("fine")},
			{Name: "b", Data: []byte("bad:x")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := out["Report"]
	if len(rep) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	var joined []string
	for _, it := range rep {
		joined = append(joined, string(it.Data))
	}
	all := strings.Join(joined, "|")
	if !strings.Contains(all, "processed:fine") || !strings.Contains(all, "handled:invalid bad:x") {
		t.Fatalf("report = %v", joined)
	}
}

func TestAllOptionalInputsEmptyStillRuns(t *testing.T) {
	// A function whose every input is optional runs even when all sets
	// are empty (it may synthesize a default).
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Empty", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out"}}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Default", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: "d", Data: []byte("default")}}}}, nil
	}})
	if _, err := p.RegisterCompositionText(`
composition D(In) => Result {
    Empty(x = all In) => (none = Out);
    Default(x = optional all none) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := call(p, "D", map[string][]memctx.Item{"In": {{Name: "x", Data: []byte("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 1 || string(out["Result"][0].Data) != "default" {
		t.Fatalf("result = %+v", out["Result"])
	}
}

func TestGasLimitPreemptsRunawayFunction(t *testing.T) {
	// §5 footnote 2: tasks running longer than the user-specified
	// timeout are preempted. The registered GasLimit is that timeout.
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{
		Name:     "Spin",
		Binary:   dvm.SpinProgram().Encode(),
		MemBytes: 64,
		GasLimit: 10_000,
	})
	p.RegisterCompositionText(`
composition S(In) => Result {
    Spin(x = all In) => (Result = out0);
}`)
	_, err := call(p, "S", map[string][]memctx.Item{"In": {{Name: "x", Data: []byte("x")}}})
	if !errors.Is(err, dvm.ErrGasExhausted) {
		t.Fatalf("err = %v, want gas exhaustion", err)
	}
	// The engine survives preemption and keeps serving.
	p.RegisterFunction(ComputeFunc{Name: "Ok", Go: tag("ok:")})
	p.RegisterCompositionText(`
composition O(In) => Result {
    Ok(x = all In) => (Result = Out);
}`)
	out, err := call(p, "O", map[string][]memctx.Item{"In": {{Name: "x", Data: []byte("alive")}}})
	if err != nil || string(out["Result"][0].Data) != "ok:alive" {
		t.Fatalf("platform dead after preemption: %v", err)
	}
}
