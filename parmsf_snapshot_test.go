package parmsf

import (
	"fmt"
	"testing"

	"parmsf/internal/workload"
)

// snapshotEdges collects a snapshot's live edge set keyed by normalized
// endpoints.
func snapshotEdges(s *Snapshot) map[[2]int]Weight {
	out := map[[2]int]Weight{}
	s.Edges(func(u, v int, w Weight) bool {
		if u > v {
			u, v = v, u
		}
		out[[2]int{u, v}] = w
		return true
	})
	return out
}

// partitionsMatch checks two snapshots induce the same partition of [0, n)
// — labels need not be equal (the delta path's are persistent identities,
// the sweep's are dense), only in bijection.
func partitionsMatch(a, b *Snapshot, n int) string {
	ab := map[int]int{}
	ba := map[int]int{}
	for v := 0; v < n; v++ {
		la, lb := a.ComponentOf(v), b.ComponentOf(v)
		if x, ok := ab[la]; ok && x != lb {
			return fmt.Sprintf("vertex %d: label %d maps to both %d and %d", v, la, x, lb)
		}
		if x, ok := ba[lb]; ok && x != la {
			return fmt.Sprintf("vertex %d: label %d maps back to both %d and %d", v, lb, x, la)
		}
		ab[la] = lb
		ba[lb] = la
	}
	return ""
}

// compareSnapshots asserts two forests publish identical snapshot content:
// same epoch count, weight, forest size, component count, live edge set,
// and component partition.
func compareSnapshots(t *testing.T, at string, fd, fs *Forest, n int) {
	t.Helper()
	a, b := fd.Snapshot(), fs.Snapshot()
	defer a.Release()
	defer b.Release()
	if a.Epoch() != b.Epoch() {
		t.Fatalf("%s: delta epoch %d != sweep epoch %d", at, a.Epoch(), b.Epoch())
	}
	if a.Weight() != b.Weight() {
		t.Fatalf("%s: delta weight %d != sweep weight %d", at, a.Weight(), b.Weight())
	}
	if a.Size() != b.Size() || a.Components() != b.Components() {
		t.Fatalf("%s: delta size/components %d/%d != sweep %d/%d",
			at, a.Size(), a.Components(), b.Size(), b.Components())
	}
	ea, eb := snapshotEdges(a), snapshotEdges(b)
	if len(ea) != len(eb) {
		t.Fatalf("%s: delta has %d edges, sweep %d", at, len(ea), len(eb))
	}
	for k, w := range ea {
		if eb[k] != w {
			t.Fatalf("%s: edge (%d,%d): delta weight %d, sweep %d", at, k[0], k[1], w, eb[k])
		}
	}
	if msg := partitionsMatch(a, b, n); msg != "" {
		t.Fatalf("%s: partitions differ: %s", at, msg)
	}
}

// TestSnapshotDeltaParity drives identical churn through a forest on the
// default capacity-driven delta schedule and a forest with the delta path
// disabled (SnapshotRebaseEvery: 1), comparing every published epoch's
// weight, edge set and component partition — first op by op, then through
// the batch API. Bit-identical content at every epoch is the acceptance
// bar for the O(delta) path.
func TestSnapshotDeltaParity(t *testing.T) {
	configs := map[string]Options{
		"default":  {MaxEdges: 1 << 12},
		"sparsify": {Sparsify: true},
	}
	for name, opt := range configs {
		t.Run(name, func(t *testing.T) {
			const n, cell = 256, 16
			bs := workload.SmallBatchChurn(n, cell, 160, 4, 42)
			sweepOpt := opt
			sweepOpt.SnapshotRebaseEvery = 1
			fd := MustNew(n, opt)
			defer fd.Close()
			fs := MustNew(n, sweepOpt)
			defer fs.Close()
			for _, e := range bs.Base {
				if err := fd.Insert(e.U, e.V, e.W); err != nil {
					t.Fatal(err)
				}
				if err := fs.Insert(e.U, e.V, e.W); err != nil {
					t.Fatal(err)
				}
			}
			compareSnapshots(t, "after base load", fd, fs, n)

			// Phase 1: op-by-op through the single-update API.
			half := len(bs.Batches) / 2
			for bi, ops := range bs.Batches[:half] {
				for oi, op := range ops {
					at := fmt.Sprintf("batch %d op %d", bi, oi)
					if op.Kind == workload.OpInsert {
						if err := fd.Insert(op.U, op.V, op.W); err != nil {
							t.Fatalf("%s: delta insert: %v", at, err)
						}
						if err := fs.Insert(op.U, op.V, op.W); err != nil {
							t.Fatalf("%s: sweep insert: %v", at, err)
						}
					} else {
						if err := fd.Delete(op.U, op.V); err != nil {
							t.Fatalf("%s: delta delete: %v", at, err)
						}
						if err := fs.Delete(op.U, op.V); err != nil {
							t.Fatalf("%s: sweep delete: %v", at, err)
						}
					}
					compareSnapshots(t, at, fd, fs, n)
				}
			}

			// Phase 2: whole batches through the batch API, one engine batch
			// (hence one epoch) per maximal same-kind run.
			apply := func(f *Forest, ops []workload.Op, i, j int) []error {
				if ops[i].Kind == workload.OpInsert {
					es := make([]Edge, 0, j-i)
					for _, op := range ops[i:j] {
						es = append(es, Edge{U: op.U, V: op.V, W: op.W})
					}
					return f.InsertEdges(es)
				}
				ks := make([]EdgeKey, 0, j-i)
				for _, op := range ops[i:j] {
					ks = append(ks, EdgeKey{U: op.U, V: op.V})
				}
				return f.DeleteEdges(ks)
			}
			for bi, ops := range bs.Batches[half:] {
				for i := 0; i < len(ops); {
					j := i
					for j < len(ops) && ops[j].Kind == ops[i].Kind {
						j++
					}
					at := fmt.Sprintf("batch %d run %d..%d", half+bi, i, j)
					if errs := apply(fd, ops, i, j); errs != nil {
						t.Fatalf("%s: delta batch: %v", at, errs)
					}
					if errs := apply(fs, ops, i, j); errs != nil {
						t.Fatalf("%s: sweep batch: %v", at, errs)
					}
					compareSnapshots(t, at, fd, fs, n)
					i = j
				}
			}

			dst, sst := fd.PublishStats(), fs.PublishStats()
			if dst.DeltaEpochs == 0 {
				t.Fatal("delta-schedule forest never took the delta path; parity is vacuous")
			}
			if sst.DeltaEpochs != 0 {
				t.Fatalf("sweep forest took %d delta epochs, want 0", sst.DeltaEpochs)
			}
		})
	}
}

// TestSnapshotComponentLabels pins the documented ComponentOf label
// semantics at the public API: labels are persistent component identities
// between rebases — an update leaves every untouched component's label
// unchanged, a link keeps the larger side's label, a cut mints a fresh
// label for the (smaller) side it split off — and a rebase epoch renames
// components densely into [0, Components()).
func TestSnapshotComponentLabels(t *testing.T) {
	const n = 64
	f := MustNew(n, Options{MaxEdges: 256})
	defer f.Close()
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 2}, {10, 11, 3}} {
		if err := f.Insert(e[0], e[1], Weight(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	s0 := f.Snapshot()
	defer s0.Release()
	st0 := f.PublishStats()

	// Cut (0,1): the smaller side {0} splits off.
	if err := f.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	s1 := f.Snapshot()
	defer s1.Release()
	st1 := f.PublishStats()
	if st1.Rebases != st0.Rebases || st1.DeltaEpochs != st0.DeltaEpochs+1 {
		t.Fatalf("cut did not publish exactly one delta epoch: %+v -> %+v", st0, st1)
	}
	for v := 3; v < n; v++ {
		if s1.ComponentOf(v) != s0.ComponentOf(v) {
			t.Fatalf("untouched vertex %d relabeled %d -> %d by a delta epoch",
				v, s0.ComponentOf(v), s1.ComponentOf(v))
		}
	}
	if s1.ComponentOf(1) != s0.ComponentOf(1) {
		t.Fatal("surviving (larger) side of the cut was relabeled")
	}
	fresh := s1.ComponentOf(0)
	for v := 0; v < n; v++ {
		if s0.ComponentOf(v) == fresh {
			t.Fatalf("cut-side label %d is not fresh (vertex %d had it before)", fresh, v)
		}
	}

	// Link (0,2): {0} joins {1,2}; the larger side's label survives.
	if err := f.Insert(0, 2, 9); err != nil {
		t.Fatal(err)
	}
	s2 := f.Snapshot()
	defer s2.Release()
	if got, want := s2.ComponentOf(0), s1.ComponentOf(1); got != want {
		t.Fatalf("link kept label %d, want the larger side's %d", got, want)
	}

	// Deleting a non-tree edge leaves the forest unchanged, so it publishes
	// no epoch and relabels nothing — also when the edge held the first
	// gadget slots of endpoints whose forest edges sit in later slots.
	for _, e := range [][3]int{{20, 21, 50}, {21, 22, 10}, {20, 22, 20}} {
		if err := f.Insert(e[0], e[1], Weight(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	s3 := f.Snapshot()
	defer s3.Release()
	st3 := f.PublishStats()
	if err := f.Delete(20, 21); err != nil {
		t.Fatal(err)
	}
	s4 := f.Snapshot()
	defer s4.Release()
	if st4 := f.PublishStats(); st4 != st3 {
		t.Fatalf("non-tree delete published: %+v -> %+v", st3, st4)
	}
	for v := 0; v < n; v++ {
		if s4.ComponentOf(v) != s3.ComponentOf(v) {
			t.Fatalf("non-tree delete relabeled vertex %d: %d -> %d", v, s3.ComponentOf(v), s4.ComponentOf(v))
		}
	}

	// A forced-rebase forest publishes dense labels: every rebase epoch's
	// labels lie in [0, Components()).
	fr := MustNew(n, Options{MaxEdges: 256, SnapshotRebaseEvery: 1})
	defer fr.Close()
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 2}, {10, 11, 3}} {
		if err := fr.Insert(e[0], e[1], Weight(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	sr := fr.Snapshot()
	defer sr.Release()
	for v := 0; v < n; v++ {
		if l := sr.ComponentOf(v); l < 0 || l >= sr.Components() {
			t.Fatalf("rebase label %d of vertex %d outside dense range [0, %d)", l, v, sr.Components())
		}
	}
}

// TestOutOfRangeVertexQueries pins the read plane's answers for a vertex
// outside [0, n): Connected is false, as Cluster.Connected answers, and a
// snapshot's ComponentOf is -1, on a default and a sparsified forest.
func TestOutOfRangeVertexQueries(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		opt  Options
	}{{"default", Options{}}, {"sparsify", Options{Sparsify: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustNew(n, tc.opt)
			defer f.Close()
			if err := f.Insert(0, n-1, 5); err != nil {
				t.Fatal(err)
			}
			for _, q := range [][2]int{{0, n}, {-1, 0}, {n, n}} {
				if f.Connected(q[0], q[1]) {
					t.Errorf("Connected(%d, %d) = true, want false", q[0], q[1])
				}
			}
			if !f.Connected(0, n-1) {
				t.Errorf("Connected(0, %d) = false, want true", n-1)
			}
			s := f.Snapshot()
			defer s.Release()
			for _, v := range []int{n, -1} {
				if c := s.ComponentOf(v); c != -1 {
					t.Errorf("ComponentOf(%d) = %d, want -1", v, c)
				}
			}
		})
	}
}
