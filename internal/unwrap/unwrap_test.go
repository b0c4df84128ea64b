package unwrap

import "testing"

type iface interface{ Name() string }

type base struct{}

func (base) Name() string  { return "base" }
func (base) Extra() string { return "capability" }

type shim struct{ inner iface }

func (s shim) Name() string  { return "shim:" + s.inner.Name() }
func (s shim) Unwrap() iface { return s.inner }

type opaque struct{ inner iface }

func (o opaque) Name() string { return o.inner.Name() }

type selfLoop struct{}

func (selfLoop) Name() string    { return "loop" }
func (s selfLoop) Unwrap() iface { return s }

type capability interface{ Extra() string }

func TestAsFindsThroughChain(t *testing.T) {
	var h iface = shim{inner: shim{inner: base{}}}
	c, ok := As[capability](h)
	if !ok || c.Extra() != "capability" {
		t.Fatalf("As = %v, %v; want capability through two wrappers", c, ok)
	}
}

func TestAsPrefersOutermost(t *testing.T) {
	var h iface = shim{inner: base{}}
	got, ok := As[iface](h)
	if !ok || got.Name() != "shim:base" {
		t.Fatalf("As returned %v; want the outermost match", got)
	}
}

func TestAsStopsAtOpaqueWrapper(t *testing.T) {
	// A wrapper without Unwrap hides the capability — that is the contract
	// the Unwrap method exists to fix.
	var h iface = opaque{inner: base{}}
	if _, ok := As[capability](h); ok {
		t.Fatal("capability should be invisible behind a non-unwrapping wrapper")
	}
}

func TestAsMissing(t *testing.T) {
	var h iface = base{}
	type other interface{ Never() }
	if _, ok := As[other](h); ok {
		t.Fatal("found a capability nothing implements")
	}
}

func TestAsTerminatesOnCycle(t *testing.T) {
	var h iface = selfLoop{}
	if _, ok := As[capability](h); ok {
		t.Fatal("cycle should not yield the capability")
	}
}
