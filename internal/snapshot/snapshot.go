// Package snapshot implements the epoch-versioned read plane of the dynamic
// MSF: after every applied update batch the write path publishes an
// immutable Snapshot — component labels, the forest edge list, the total
// weight and an epoch counter — and concurrent readers answer
// Connected/Components/Weight/Edges queries against the current snapshot
// without ever touching engine state. Publication is one atomic pointer
// store; reads are lock-free and wait-free against the writer (a reader
// never blocks on an in-flight batch, it simply observes the previous
// epoch).
//
// Publication cost is proportional to the batch's forest delta, not to n:
// snapshots are thin shells over a shared era — a fixed-capacity arena
// holding a base label array, an append-only label-override log, a label
// merge table and a copy-on-write edge log — and a delta epoch
// (TryPublishDelta) appends only the changed entries: a forest link is one
// O(1) label union, a forest cut relabels just the vertices of the smaller
// side. Every entry is stamped with the era-relative epoch that introduced
// it, so any number of published snapshots share one era and each resolves
// queries as of its own stamp. When the era's log or label capacity
// (~n/8 relabels) is exhausted — or a delta cannot be expressed — the
// publisher rebases: the pre-existing Builder path re-densifies labels and
// the edge list into a fresh pooled era, exactly the old full-sweep
// publication, now amortized O(delta) per epoch. See delta.go for the era
// layout and the reader-resolution protocol.
//
// Snapshot shells and eras are pooled, and retirement is publisher-owned:
// readers only ever touch the atomic reference count (Acquire adds,
// validates the current pointer, retries on failure; Release is a bare
// decrement), while the Publisher — whose publish calls are serialized by
// the write path — keeps the retired shells on a private list and reuses
// one only after observing its reference count at zero. That single-owner
// design is what makes recycling safe against arbitrarily slow readers:
// there is no reader-side "return to pool" step that could land late and
// hand a live snapshot's buffers to the builder (a decrement observed at
// zero happens-before the builder's writes through the same atomic), and a
// reader that never calls Release simply keeps its snapshot valid forever —
// the publisher abandons unreclaimed entries to the garbage collector
// instead of waiting on them. An era returns to its pool only once every
// shell referencing it has been reclaimed. Steady-state publication
// allocates nothing on either path.
package snapshot

import (
	"sync/atomic"
	"time"

	"parmsf/internal/faultinject"
)

// fpPublish is the read plane's crash point: it fires at the entry of both
// publication paths (Publish and TryPublishDelta), before any
// publisher-side mutation — a trapped publication must leave the publisher
// able to publish the recovered forest's rebased epoch, and readers on the
// last published epoch.
var fpPublish = faultinject.Register("snapshot/publish")

// Edge is one forest edge of a snapshot, in original vertex space.
type Edge struct {
	U, V int
	W    int64
}

// Snapshot is an immutable point-in-time view of the maintained forest.
// All methods are read-only and safe for concurrent use by any number of
// goroutines. Snapshots are created by a Publisher; the zero value is not
// meaningful.
type Snapshot struct {
	epoch  uint64
	n      int
	weight int64

	// The era this snapshot views, frozen at relative epoch rel: label
	// queries resolve base + override log + merge table entries stamped
	// <= rel, edge iteration sees the first entries live entries whose
	// death stamp (if any) is > rel.
	era     *era
	rel     uint32
	nlive   int32 // forest edges alive at rel
	entries int32 // edge-log prefix born by rel

	refs atomic.Int64 // readers + (1 while current) publisher reference
}

// Epoch returns the snapshot's version: publisher epochs start at 0 (the
// empty forest) and increase by one per published snapshot, so any two
// snapshots from one Publisher are ordered by Epoch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// N returns the vertex count.
func (s *Snapshot) N() int { return s.n }

// Weight returns the total weight of the forest.
func (s *Snapshot) Weight() int64 { return s.weight }

// Size returns the number of forest edges.
func (s *Snapshot) Size() int { return int(s.nlive) }

// Components returns the number of connected components (isolated vertices
// count): n minus the number of forest edges.
func (s *Snapshot) Components() int { return s.n - int(s.nlive) }

// Connected reports whether u and v were in one tree at this epoch, and
// false when either vertex is outside [0, N()). O(delta since the last
// rebase) in the worst case, O(1) for vertices the intervening epochs did
// not relabel.
func (s *Snapshot) Connected(u, v int) bool {
	if !s.has(u) || !s.has(v) {
		return false
	}
	return s.era.labelOf(u, s.rel) == s.era.labelOf(v, s.rel)
}

// has reports whether v is a vertex of the snapshot, in [0, N()): one
// unsigned compare, since a negative v converts above every N().
func (s *Snapshot) has(v int) bool { return uint(v) < uint(s.n) }

// ComponentOf returns v's component id, or -1 when v is outside [0, N()).
// Labels are persistent identities between rebases: two snapshots of one
// era agree on the label of every component that no intervening epoch
// changed (a link keeps the larger side's label; a cut mints a fresh label
// for the smaller side only). Labels are dense in [0, Components()) on
// rebase epochs and drawn from [0, N()+N()/8+16) in between — they are
// component identifiers, not array indices. As before, labels are not
// comparable across rebases.
func (s *Snapshot) ComponentOf(v int) int {
	if !s.has(v) {
		return -1
	}
	return int(s.era.labelOf(v, s.rel))
}

// Edges calls fn for every forest edge, stopping early on false. O(Size +
// edges deleted since the last rebase). Iteration order is the era's edge
// log order (engine export order for the rebase prefix, insertion order
// for edges added since), not meaningful across epochs.
func (s *Snapshot) Edges(fn func(u, v int, w int64) bool) {
	e := s.era
	for i := 0; i < int(s.entries); i++ {
		if d := atomic.LoadUint32(&e.dead[i]); d != 0 && d <= s.rel {
			continue
		}
		ed := e.edges[i]
		if !fn(ed.U, ed.V, ed.W) {
			return
		}
	}
}

// Release drops the caller's reference, making the snapshot's shell (and,
// once every shell of its era drains, the era's buffers) eligible for reuse
// by a later publication. Calling Release is optional — an unreleased
// snapshot stays valid and is garbage collected normally — but releasing
// keeps publication allocation-free. A snapshot must not be used after its
// Release, and Release must be called at most once per Acquire. Wait-free:
// one atomic decrement; retirement itself is the publisher's job, never
// the reader's.
func (s *Snapshot) Release() { s.refs.Add(-1) }

// maxRetired bounds the publisher's retired list: entries beyond it —
// snapshots still pinned by readers that may never release — are abandoned
// to the garbage collector rather than tracked forever.
const maxRetired = 4

// Publisher owns the current snapshot pointer, the retired shells awaiting
// reuse and the era pool. One goroutine at a time may
// Begin/Publish/Abort/TryPublishDelta (the write path is serialized by the
// caller); any number of goroutines may Acquire/Release concurrently.
type Publisher struct {
	cur   atomic.Pointer[Snapshot]
	epoch uint64 // last published epoch (publisher side only)
	n     int

	curEra *era   // era of the current snapshot (publisher side only)
	pool   []*era // drained eras awaiting reuse by the next rebase

	// retired holds swapped-out shells, publisher-side only. An entry is
	// reused once its refs are observed at zero; observing that zero
	// through the same atomic the readers decrement is what orders every
	// past reader's access before the shell's (and era's) reuse.
	retired []*Snapshot

	rebaseEvery int   // force a rebase every k epochs (0: capacity-driven)
	beginAt     int64 // Begin's wall clock, folded into stats at Publish
	stats       Stats

	fault *faultinject.Injector // crash points (SetFault; nil no-op)
}

// SetFault installs the crash-point injector (fault-injection testing; nil
// keeps every point a no-op).
func (p *Publisher) SetFault(in *faultinject.Injector) { p.fault = in }

// Stats are the publisher's cumulative publication counters (publisher
// side only; not synchronized with concurrent publishes).
type Stats struct {
	Epochs       uint64 // snapshots published (excluding epoch 0)
	DeltaEpochs  uint64 // epochs published through TryPublishDelta
	Rebases      uint64 // epochs published through the Builder sweep path
	PatchEntries uint64 // label-override log entries written by delta epochs
	PublishNs    int64  // wall time inside publication (both paths)
	DeltaNs      int64  // wall time inside successful delta publications
}

// Stats returns the cumulative publication counters.
func (p *Publisher) Stats() Stats { return p.stats }

// SetRebaseEvery forces a rebase every k epochs: a delta that would be the
// k-th epoch since the era's rebase is refused, so the caller falls back
// to the sweep path. k <= 0 restores the default (rebase only when era
// capacity runs out or a delta cannot be expressed). Publisher side only;
// intended for tests and experiments exercising the rebase boundary.
func (p *Publisher) SetRebaseEvery(k int) { p.rebaseEvery = k }

// NewPublisher creates a publisher over n vertices and publishes the
// epoch-0 snapshot of the empty forest (every vertex its own component), so
// Acquire never observes a nil snapshot.
func NewPublisher(n int) *Publisher {
	p := &Publisher{n: n}
	b := p.Begin(n)
	comp := b.Comp(n)
	for v := range comp {
		comp[v] = int32(v)
	}
	s := p.Publish(b)
	// Epoch 0 is the empty-forest baseline, not a published update.
	s.epoch = 0
	p.epoch = 0
	p.stats = Stats{}
	return p
}

// Acquire returns the current snapshot with a reader reference held. The
// caller should Release it when done; see Snapshot.Release. Acquire is
// lock-free and never blocks on a concurrent publish.
func (p *Publisher) Acquire() *Snapshot {
	for {
		s := p.cur.Load()
		s.refs.Add(1)
		// Re-validate: if s is still current, our reference was taken
		// before the publisher could observe zero refs and recycle it, and
		// its contents are frozen while we hold it. If s was swapped out
		// meanwhile, it may already be rebuilding — drop the speculative
		// reference and retry; the speculative add/drop touches only the
		// counter, never the payload. The ABA case (s retired, recycled
		// and re-published between the two loads) is benign: validation
		// then accepts s, which is once again the current, fully built
		// snapshot, and the validating load orders the builder's writes
		// before our reads.
		if p.cur.Load() == s {
			return s
		}
		s.Release()
	}
}

// Builder is a pooled snapshot being filled before publication — the
// rebase path: publishing it starts a fresh era seeded with the dense
// labels and edge list the caller sweeps in. It must be used by one
// goroutine and either published or discarded with Abort.
type Builder struct {
	s *Snapshot
	e *era
}

// shell returns a snapshot shell for the next publication, reusing a
// retired one when it has fully drained (allocating only otherwise), and
// scavenges every drained retired shell's era reference so eras return to
// the pool as soon as their last reader is gone.
func (p *Publisher) shell() *Snapshot {
	var s *Snapshot
	kept := p.retired[:0]
	for _, r := range p.retired {
		if r.refs.Load() != 0 {
			kept = append(kept, r)
			continue
		}
		// Observing zero through the readers' own atomic orders every past
		// reader's payload access before the reuse below. A stale reader
		// may still run a speculative add/validate/drop cycle on this
		// shell concurrently, but that cycle touches only the counter
		// until validation succeeds — which requires the shell to be
		// re-published, fully built, first.
		p.dropEraRef(r)
		if s == nil {
			s = r
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(p.retired); i++ {
		p.retired[i] = nil
	}
	p.retired = kept
	if s == nil {
		s = &Snapshot{}
	}
	s.refs.Add(1) // the publisher's reference, dropped when unpublished
	return s
}

// dropEraRef releases a drained shell's hold on its era; the era returns
// to the pool once no shell references it and it is no longer current.
func (p *Publisher) dropEraRef(s *Snapshot) {
	e := s.era
	if e == nil {
		return
	}
	s.era = nil
	e.snaps--
	if e.snaps == 0 && e != p.curEra {
		if len(p.pool) < maxRetired {
			p.pool = append(p.pool, e)
		}
	}
}

// Begin starts building the next rebase snapshot on a pooled era. n is the
// vertex count of the forthcoming snapshot. Publisher side only.
func (p *Publisher) Begin(n int) Builder {
	p.beginAt = time.Now().UnixNano()
	s := p.shell()
	var e *era
	if k := len(p.pool); k > 0 {
		e = p.pool[k-1]
		p.pool[k-1] = nil
		p.pool = p.pool[:k-1]
	}
	e = resetEra(e, n)
	p.n = n
	return Builder{s: s, e: e}
}

// Comp returns the base label array of the era under construction, sized
// n. The caller must fill every cell with a label in [0, n).
func (b Builder) Comp(n int) []int32 { return b.e.base[:n] }

// AppendEdge records one forest edge.
func (b Builder) AppendEdge(u, v int, w int64) { b.e.appendBaseEdge(u, v, w) }

// SetWeight records the forest's total weight.
func (b Builder) SetWeight(w int64) { b.e.weight = w }

// Publish seals the builder's era (deriving the publisher-private label
// sizes, union-find and edge index from the swept-in base state), freezes
// its snapshot at the next epoch and swaps it in as current with one
// atomic pointer store; the previous shell joins the retired list for
// reuse once its readers drain. Returns the published snapshot (without an
// extra reader reference). Publisher side only.
func (p *Publisher) Publish(b Builder) *Snapshot {
	p.fault.Hit(fpPublish)
	s, e := b.s, b.e
	e.seal()
	e.snaps++
	s.era = e
	s.rel = 0
	s.n = e.n
	s.weight = e.weight
	s.nlive = int32(e.nlive)
	s.entries = int32(e.edgeLen)
	p.curEra = e
	p.epoch++
	s.epoch = p.epoch
	p.swapIn(s)
	p.stats.Epochs++
	p.stats.Rebases++
	p.stats.PublishNs += time.Now().UnixNano() - p.beginAt
	return s
}

// swapIn makes s current and retires the previous snapshot.
func (p *Publisher) swapIn(s *Snapshot) {
	old := p.cur.Swap(s)
	if old != nil {
		old.Release() // drop the publisher's reference to the previous epoch
		p.retire(old)
	}
}

// retire records a swapped-out snapshot for reuse, abandoning the oldest
// still-pinned entries to the GC when the list outgrows maxRetired (a
// reader that never releases keeps its snapshot valid; it just cannot be
// recycled — and its era stays pinned with it).
func (p *Publisher) retire(s *Snapshot) {
	p.retired = append(p.retired, s)
	if len(p.retired) <= maxRetired {
		return
	}
	kept := p.retired[:0]
	for _, r := range p.retired {
		free := r.refs.Load() == 0
		if free {
			// Even when the shell itself is abandoned below, its era must
			// not leak with it.
			p.dropEraRef(r)
		}
		if free && len(kept) < maxRetired {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(p.retired); i++ {
		p.retired[i] = nil
	}
	p.retired = kept
}
