package core_test

import (
	"runtime"
	"testing"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/workload/tpch"
)

// TestOptimalTPCHTableGolden pins the branch-and-bound outcome of the
// optimal allocator on the TPC-H table-based instance under a budget
// of 150 nodes per phase. Any change to the simplex that moves a pivot
// changes the tree, and with it the node counts or the incumbent. The
// replication degrees are compared bit for bit only on amd64: on other
// architectures Go may fuse multiply-adds, which rounds differently.
func TestOptimalTPCHTableGolden(t *testing.T) {
	mix, err := tpch.Mix()
	if err != nil {
		t.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(10000), tpch.Schema(),
		classify.Options{Strategy: classify.TableBased, RowCounts: tpch.RowCounts(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		n           int
		nodes       int
		replication float64
	}{
		{2, 169, 1.9465029986155526},
		{3, 187, 2.806170567553703},
	} {
		got, err := core.Optimal(res.Classification, core.UniformBackends(want.n), core.OptimalOptions{MaxNodes: 150})
		if err != nil {
			t.Fatalf("n=%d: %v", want.n, err)
		}
		if got.Nodes != want.nodes || !got.ScaleProven || got.SpaceProven {
			t.Errorf("n=%d: Nodes %d ScaleProven %v SpaceProven %v, want %d true false",
				want.n, got.Nodes, got.ScaleProven, got.SpaceProven, want.nodes)
		}
		if r := got.Allocation.DegreeOfReplication(); runtime.GOARCH == "amd64" && r != want.replication {
			t.Errorf("n=%d: DegreeOfReplication %v, want exactly %v", want.n, r, want.replication)
		}
	}
}
