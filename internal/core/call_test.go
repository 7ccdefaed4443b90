package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dandelion/internal/memctx"
)

// The call shapes the tests use, over the platform's two invoke
// methods.

func call(p *Platform, name string, in map[string][]memctx.Item) (map[string][]memctx.Item, error) {
	return callAs(p, DefaultTenant, name, in)
}

func callAs(p *Platform, tenant, name string, in map[string][]memctx.Item) (map[string][]memctx.Item, error) {
	return callKeyed(p, tenant, name, "", in)
}

func callKeyed(p *Platform, tenant, name, key string, in map[string][]memctx.Item) (map[string][]memctx.Item, error) {
	return p.InvokeKeyedAsCtx(context.Background(), tenant, name, key, in)
}

func callBatch(p *Platform, reqs []BatchRequest) []BatchResult {
	return p.InvokeBatchCtx(context.Background(), reqs)
}

// callBatchAs stamps one tenant over every request of the batch.
func callBatchAs(p *Platform, tenant string, reqs []BatchRequest) []BatchResult {
	tagged := make([]BatchRequest, len(reqs))
	for i, r := range reqs {
		r.Tenant = tenant
		tagged[i] = r
	}
	return callBatch(p, tagged)
}

// TestPlatformInvokeSurface guards the one-executor design: *Platform
// exports exactly two invoke methods, a one-request call and a batch.
// Other call shapes belong in the SDK (package dandelion) or, for
// tests, in the helpers above.
func TestPlatformInvokeSurface(t *testing.T) {
	typ := reflect.TypeOf((*Platform)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Invoke") {
			got = append(got, name)
		}
	}
	if want := []string{"InvokeBatchCtx", "InvokeKeyedAsCtx"}; !slices.Equal(got, want) {
		t.Fatalf("*Platform invoke methods = %v, want %v", got, want)
	}
}
