package core

import (
	"fmt"

	"parmsf/internal/seqtree"
)

// CheckInvariants exhaustively verifies the structure against its paper
// invariants: principal-copy rings, Euler-tour validity, Invariant 1, CAdj
// ground truth (Inf on the unmaintained diagonal), LSDS aggregation, and
// registry consistency. An implicit vertex must have no edges and no chunk
// id, and CAdj rows must exist for exactly the ids below the high-water
// mark. It sweeps all J cells of every row and vector, so it also verifies
// that every cell at or above the mark reads Inf. It is O(n + m + hi·J)
// plus O(J) per internal LSDS node, and meant for tests.
func (st *Store) CheckInvariants() error {
	if len(st.normQ) != 0 {
		return fmt.Errorf("%d chunks still queued for normalize", len(st.normQ))
	}

	// --- Vertices: rings and principal copies. ---
	ringCopies := 0
	for v := 0; v < st.n; v++ {
		pc := st.pcs[v]
		if pc == nil {
			if d := st.g.Degree(v); d != 0 {
				return fmt.Errorf("vertex %d: degree %d but no state", v, d)
			}
			if st.pcid[v] != -1 {
				return fmt.Errorf("vertex %d: no state but pcid %d", v, st.pcid[v])
			}
			continue
		}
		if !pc.principal || int(pc.v) != v {
			return fmt.Errorf("vertex %d: bad principal copy", v)
		}
		count, principals := 0, 0
		cp := pc
		for {
			if int(cp.v) != v {
				return fmt.Errorf("vertex %d: ring contains copy of %d", v, cp.v)
			}
			if cp.principal {
				principals++
			}
			if cp.ringNext.ringPrev != cp {
				return fmt.Errorf("vertex %d: ring links broken", v)
			}
			count++
			cp = cp.ringNext
			if cp == pc {
				break
			}
			if count > 8 {
				return fmt.Errorf("vertex %d: ring too large", v)
			}
		}
		if principals != 1 {
			return fmt.Errorf("vertex %d: %d principal copies", v, principals)
		}
		ringCopies += count
		if pc.chunk != nil && st.pcid[v] != pc.chunk.id {
			return fmt.Errorf("vertex %d: pcid %d, principal copy's chunk has id %d", v, st.pcid[v], pc.chunk.id)
		}
		wantCopies := st.treeDegree(v)
		if wantCopies == 0 {
			wantCopies = 1
		}
		if count != wantCopies {
			return fmt.Errorf("vertex %d: %d copies, want %d (tree degree)", v, count, wantCopies)
		}
	}

	// --- Tours: structure, chunk partition, Euler validity, Invariant 1.
	seenChunks := map[*Chunk]bool{}
	seenCopies := map[*Copy]bool{}
	for root, t := range st.tourByRoot {
		if t.root != root {
			return fmt.Errorf("tourByRoot maps to tour with different root")
		}
		if root.Parent() != nil {
			return fmt.Errorf("tour root has a parent")
		}
		if err := seqtree.Validate(root); err != nil {
			return fmt.Errorf("LSDS: %w", err)
		}
		nChunks := 0
		registered := 0
		var tourCopies []*Copy
		var walkErr error
		seqtree.Leaves(root, func(l *lsNode) bool {
			c := lsItem(l)
			nChunks++
			if seenChunks[c] {
				walkErr = fmt.Errorf("chunk appears in two tours")
				return false
			}
			seenChunks[c] = true
			if c.leaf != l {
				walkErr = fmt.Errorf("chunk leaf backpointer wrong")
				return false
			}
			if c.bt == nil {
				walkErr = fmt.Errorf("dead chunk in tour")
				return false
			}
			if err := seqtree.Validate(c.bt); err != nil {
				walkErr = fmt.Errorf("BTc: %v", err)
				return false
			}
			if c.id >= 0 {
				registered++
				if st.chunks[c.id] != c {
					walkErr = fmt.Errorf("chunk id table mismatch")
					return false
				}
			}
			seqtree.Leaves(c.bt, func(b *btNode) bool {
				cp := btItem(b)
				if seenCopies[cp] {
					walkErr = fmt.Errorf("copy appears twice")
					return false
				}
				seenCopies[cp] = true
				if cp.chunk != c || cp.leaf != b {
					walkErr = fmt.Errorf("copy backpointers wrong")
					return false
				}
				wantEdges := int32(0)
				if cp.principal {
					wantEdges = int32(st.g.Degree(int(cp.v)))
				}
				if b.Agg.copies != 1 || b.Agg.edges != wantEdges {
					walkErr = fmt.Errorf("BTc leaf agg (%d,%d), want (1,%d) for v=%d",
						b.Agg.copies, b.Agg.edges, wantEdges, cp.v)
					return false
				}
				tourCopies = append(tourCopies, cp)
				return true
			})
			return walkErr == nil
		})
		if walkErr != nil {
			return walkErr
		}

		// Invariant 1 and registration policy.
		seqtree.Leaves(root, func(l *lsNode) bool {
			c := lsItem(l)
			nc := c.nc()
			if nc > 3*st.K {
				walkErr = fmt.Errorf("Invariant 1: n_c=%d > 3K=%d", nc, 3*st.K)
				return false
			}
			if nChunks > 1 {
				if nc < st.K {
					walkErr = fmt.Errorf("Invariant 1: n_c=%d < K=%d in multi-chunk list", nc, st.K)
					return false
				}
				if c.id < 0 {
					walkErr = fmt.Errorf("unregistered chunk in multi-chunk list")
					return false
				}
			} else {
				if c.id < 0 && nc >= st.K {
					walkErr = fmt.Errorf("single chunk with n_c=%d >= K unregistered", nc)
					return false
				}
				if c.id >= 0 && nc < st.K {
					walkErr = fmt.Errorf("single chunk with n_c=%d < K registered", nc)
					return false
				}
			}
			return true
		})
		if walkErr != nil {
			return walkErr
		}

		// Registry status.
		if (registered > 0) != (t.regIdx >= 0) {
			return fmt.Errorf("tour normal status %v but %d registered chunks", t.regIdx >= 0, registered)
		}
		if t.regIdx >= 0 && st.normal[t.regIdx] != t {
			return fmt.Errorf("normal registry index broken")
		}

		// Cyclic order matches the linear chunk order, and consecutive
		// pairs are tree edges visited once per direction.
		for i, cp := range tourCopies {
			nxt := tourCopies[(i+1)%len(tourCopies)]
			if cp.next != nxt || nxt.prev != cp {
				return fmt.Errorf("cyclic links disagree with chunk order at %d", cp.v)
			}
		}
		if len(tourCopies) > 1 {
			type dir struct{ from, to int32 }
			pairSeen := map[dir]int{}
			for i, cp := range tourCopies {
				nxt := tourCopies[(i+1)%len(tourCopies)]
				if e := st.g.Find(int(cp.v), int(nxt.v)); e < 0 || !st.isTree(e) {
					return fmt.Errorf("tour pair (%d,%d) is not a tree edge", cp.v, nxt.v)
				}
				pairSeen[dir{cp.v, nxt.v}]++
			}
			for d, k := range pairSeen {
				if k != 1 {
					return fmt.Errorf("directed pair (%d,%d) visited %d times", d.from, d.to, k)
				}
			}
		}
	}

	// Every copy reachable from vertices must have been visited, and the
	// tours hold no other copy.
	for v := 0; v < st.n; v++ {
		cp := st.pcs[v]
		if cp == nil {
			continue
		}
		for first := true; first || cp != st.pcs[v]; first = false {
			if !seenCopies[cp] {
				return fmt.Errorf("vertex %d has a copy not in any tour", v)
			}
			cp = cp.ringNext
		}
	}
	if len(seenCopies) != ringCopies {
		return fmt.Errorf("tours hold %d copies, vertex rings %d", len(seenCopies), ringCopies)
	}

	// --- Tree edges: occurrence anchors, set for both directions of live
	// edges only, each preceding its edge's pair. (VerifyTours checks them
	// against the link-cut forest's edges by ID.) ---
	if len(st.occU) != st.g.IDBound() || len(st.occV) != len(st.occU) {
		return fmt.Errorf("occurrence tables sized %d/%d, edge ID bound %d", len(st.occU), len(st.occV), st.g.IDBound())
	}
	for i, a := range st.occU {
		id, c := int32(i), st.occV[i]
		if a == nil && c == nil {
			continue
		}
		u, v := st.g.Ends(id)
		if st.g.Find(int(u), int(v)) != id {
			return fmt.Errorf("edge %d (%d,%d) is not live but holds occurrence anchors", id, u, v)
		}
		if a == nil || c == nil {
			return fmt.Errorf("tree edge %d (%d,%d) has one occurrence anchor", id, u, v)
		}
		if a.v != u || a.next.v != v || c.v != v || c.next.v != u {
			return fmt.Errorf("tree edge %d (%d,%d) anchors inconsistent", id, u, v)
		}
	}

	// --- CAdj ground truth. ---
	exp := make(map[[2]int32]Weight)
	st.g.Edges(func(id int32) bool {
		u, v := st.g.Ends(id)
		a := st.pcs[u].chunk
		b := st.pcs[v].chunk
		if a.id < 0 || b.id < 0 || a == b {
			return true
		}
		k1 := [2]int32{a.id, b.id}
		k2 := [2]int32{b.id, a.id}
		if w, ok := exp[k1]; !ok || st.g.Weight(id) < w {
			exp[k1], exp[k2] = st.g.Weight(id), st.g.Weight(id)
		}
		return true
	})
	if len(st.rows) != st.hi {
		return fmt.Errorf("CAdj rows exist for %d ids, want the %d below hi", len(st.rows), st.hi)
	}
	for i, c := range st.chunks[st.hi:] {
		if c != nil {
			return fmt.Errorf("chunk id %d at or above hi=%d is registered", st.hi+i, st.hi)
		}
	}
	for i, row := range st.rows {
		if len(row) != st.J {
			return fmt.Errorf("CAdj row %d has %d cells, want J=%d", i, len(row), st.J)
		}
		if st.chunks[i] == nil {
			// Free rows must be clear.
			for j, w := range row {
				if w != Inf {
					return fmt.Errorf("free row %d has entry %d", i, j)
				}
			}
			continue
		}
		for j, got := range row {
			want, ok := exp[[2]int32{int32(i), int32(j)}]
			if !ok {
				want = Inf
			}
			if got != want {
				return fmt.Errorf("CAdj[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}

	// --- LSDS aggregation ground truth. ---
	for _, t := range st.tourByRoot {
		if err := st.checkVecs(t.root); err != nil {
			return err
		}
	}
	return nil
}

// treeDegree returns the number of tree edges incident to v.
func (st *Store) treeDegree(v int) int {
	d := 0
	for _, h := range st.g.Adj(int32(v)) {
		if st.isTree(h.ID) {
			d++
		}
	}
	return d
}

// checkVecs verifies internal vectors bottom-up.
func (st *Store) checkVecs(nd *lsNode) error {
	if nd.IsLeaf() {
		return nil
	}
	if err := st.checkVecs(nd.Left()); err != nil {
		return err
	}
	if err := st.checkVecs(nd.Right()); err != nil {
		return err
	}
	for j := 0; j < st.J; j++ {
		lw, lm := st.columnEntry(nd.Left(), int32(j))
		rw, rm := st.columnEntry(nd.Right(), int32(j))
		if rw < lw {
			lw = rw
		}
		if got := nd.Agg.cadj[j]; got != lw {
			return fmt.Errorf("LSDS cadj[%d] = %v, want %v", j, got, lw)
		}
		if got := hasBit(nd.Agg.memb, j); got != (lm || rm) {
			return fmt.Errorf("LSDS memb[%d] = %v, want %v", j, got, lm || rm)
		}
	}
	return nil
}
