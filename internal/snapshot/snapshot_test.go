package snapshot

import (
	"sync"
	"sync/atomic"
	"testing"
)

// publish builds and publishes a snapshot whose forest is a path over the
// first k+1 vertices (k edges of weight 1..k), all other vertices isolated.
func publishPath(p *Publisher, n, k int) *Snapshot {
	b := p.Begin(n)
	comp := b.Comp(n)
	for v := range comp {
		if v <= k {
			comp[v] = 0
		} else {
			comp[v] = int32(v - k)
		}
	}
	var w int64
	for i := 0; i < k; i++ {
		b.AppendEdge(i, i+1, int64(i+1))
		w += int64(i + 1)
	}
	b.SetWeight(w)
	return p.Publish(b)
}

func TestEmptyEpochZero(t *testing.T) {
	p := NewPublisher(5)
	s := p.Acquire()
	defer s.Release()
	if s.Epoch() != 0 || s.N() != 5 || s.Size() != 0 || s.Weight() != 0 {
		t.Fatalf("initial snapshot: epoch=%d n=%d size=%d w=%d", s.Epoch(), s.N(), s.Size(), s.Weight())
	}
	if s.Components() != 5 || s.Connected(0, 1) || !s.Connected(2, 2) {
		t.Fatal("empty forest connectivity wrong")
	}
}

func TestPublishAdvancesEpochAndContent(t *testing.T) {
	p := NewPublisher(8)
	for k := 1; k <= 3; k++ {
		publishPath(p, 8, k)
		s := p.Acquire()
		if s.Epoch() != uint64(k) {
			t.Fatalf("epoch = %d, want %d", s.Epoch(), k)
		}
		if s.Size() != k || s.Components() != 8-k {
			t.Fatalf("k=%d: size=%d comps=%d", k, s.Size(), s.Components())
		}
		if !s.Connected(0, k) || s.Connected(0, k+1) {
			t.Fatalf("k=%d: connectivity wrong", k)
		}
		var sum int64
		cnt := 0
		s.Edges(func(u, v int, w int64) bool { sum += w; cnt++; return true })
		if cnt != s.Size() || sum != s.Weight() {
			t.Fatalf("k=%d: edge list disagrees with weight/size", k)
		}
		s.Release()
	}
}

// TestHeldSnapshotSurvivesRecycling pins immutability: a snapshot held
// across many later publishes must keep answering from its own epoch, even
// while the publisher recycles every other retired buffer.
func TestHeldSnapshotSurvivesRecycling(t *testing.T) {
	p := NewPublisher(16)
	publishPath(p, 16, 4)
	held := p.Acquire()
	for k := 1; k <= 12; k++ {
		publishPath(p, 16, k)
	}
	if held.Epoch() != 1 || held.Size() != 4 || held.Weight() != 1+2+3+4 {
		t.Fatalf("held snapshot mutated: epoch=%d size=%d w=%d", held.Epoch(), held.Size(), held.Weight())
	}
	if !held.Connected(0, 4) || held.Connected(0, 5) {
		t.Fatal("held snapshot connectivity mutated")
	}
	held.Release()
}

// TestConcurrentAcquireRelease hammers the acquire/validate/release
// protocol against a publishing writer under -race: every observed snapshot
// must be internally consistent (weight matches its edge list, component
// array matches the path shape) and epochs must be monotone per reader.
func TestConcurrentAcquireRelease(t *testing.T) {
	const n = 64
	const epochs = 2000
	p := NewPublisher(n)
	var fail atomic.Value // string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Acquire()
				if s.Epoch() < last {
					fail.Store("epoch went backwards")
				}
				last = s.Epoch()
				k := s.Size()
				var sum int64
				cnt := 0
				s.Edges(func(u, v int, w int64) bool { sum += w; cnt++; return true })
				if cnt != k || sum != s.Weight() {
					fail.Store("edge list inconsistent with weight")
				}
				if k+1 < n && s.Connected(0, k+1) {
					fail.Store("connectivity from a different epoch")
				}
				if k > 0 && !s.Connected(0, k) {
					fail.Store("path endpoints disconnected")
				}
				s.Release()
			}
		}()
	}
	for k := 1; k <= epochs; k++ {
		publishPath(p, n, 1+(k%(n-2)))
	}
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
}
