package dandelion

import (
	"dandelion/internal/ctlplane"
	"dandelion/internal/vfs"
)

// Reconfigurer is the runtime-reconfiguration surface of a worker node
// (the dynamic control plane): live tenant-weight updates, engine-pool
// resizing, the autoscale switch, admission-window clamps, and
// drain/resume — all without a restart. Platform implements it; the
// frontend's authenticated /admin routes (docs/ADMIN.md) expose the
// same surface over HTTP.
type Reconfigurer = ctlplane.Reconfigurer

// Platform satisfies the control plane's reconfiguration contract.
var _ Reconfigurer = (*Platform)(nil)

// FS is the in-memory virtual filesystem view a file-oriented compute
// function sees (§4.1 of the paper): input sets are mounted read-only
// as /in/<set>/<item>, and every file the function writes under
// /out/<set>/<item> becomes an output item of that set. No system
// calls are involved; the filesystem lives entirely in the function's
// memory context.
type FS = vfs.FS

// FileFunc adapts a dlibc-style function body — one that reads inputs
// and writes outputs through file operations — into a compute function.
// quota bounds the bytes the function may write (0 selects the
// default). This is the Go analogue of compiling against dlibc/dlibc++.
//
//	p.RegisterFunction(dandelion.ComputeFunc{
//	    Name: "Compress",
//	    Go: dandelion.FileFunc(0, func(fs *dandelion.FS) error {
//	        img, err := fs.ReadFile("/in/Images/photo")
//	        if err != nil {
//	            return err
//	        }
//	        png := compress(img)
//	        return fs.WriteFile("/out/Out/photo.png", png)
//	    }),
//	})
func FileFunc(quota int, fn func(fs *FS) error) GoFunc {
	return func(inputs []Set) ([]Set, error) {
		fs, err := vfs.FromInputs(inputs, quota)
		if err != nil {
			return nil, err
		}
		if err := fn(fs); err != nil {
			return nil, err
		}
		return fs.Outputs(), nil
	}
}

// BatchOf builds a homogeneous batch for Platform.InvokeBatch: one
// request per payload, each carrying a single item under inputSet of
// the named composition. It is the batched analogue of the one-item
// /invoke HTTP shortcut. The requests run as DefaultTenant; use
// BatchAs to schedule them under a tenant.
func BatchOf(composition, inputSet string, payloads ...[]byte) []BatchRequest {
	return BatchAs("", composition, inputSet, payloads...)
}

// BatchAs is BatchOf with a tenant identity: every request is tagged so
// Platform.InvokeBatch schedules and accounts it under that tenant's
// DRR share. An empty tenant means DefaultTenant.
func BatchAs(tenant, composition, inputSet string, payloads ...[]byte) []BatchRequest {
	reqs := make([]BatchRequest, len(payloads))
	for i, p := range payloads {
		reqs[i] = BatchRequest{
			Composition: composition,
			Tenant:      tenant,
			Inputs: map[string][]Item{
				inputSet: {{Name: "item0", Data: p}},
			},
		}
	}
	return reqs
}
