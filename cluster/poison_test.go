package cluster_test

import (
	"errors"
	"testing"

	"parmsf"
	"parmsf/cluster"
)

// TestClusterShardPoisoning poisons one shard of a 4-shard cluster and
// checks the failure-domain contract: the poisoned shard fails its own
// submissions fast, every surviving shard keeps accepting writes, global
// reads keep serving (holding the poisoned shard's last healthy epoch),
// no other forest's epoch moves on account of the poisoning, and Recover
// restores full cluster/flat parity.
func TestClusterShardPoisoning(t *testing.T) {
	const n = 64 // Ranges(64,4): shard s owns 16s..16s+15
	c := cluster.MustNew(n, 4, cluster.Options{
		Shard: parmsf.Options{QueueDepth: 16, MaxBatch: 8},
	})
	defer c.Close()
	flat := parmsf.MustNew(n, parmsf.Options{})
	defer flat.Close()

	// Seed every shard and the coordinator with committed state.
	w := int64(parmsf.MinWeight) + 1
	seed := [][2]int{{0, 1}, {1, 2}, {16, 17}, {32, 33}, {48, 49}, {15, 16}, {31, 32}}
	for _, e := range seed {
		if err := c.Insert(e[0], e[1], w); err != nil {
			t.Fatalf("seed insert %v: %v", e, err)
		}
		if err := flat.Insert(e[0], e[1], w); err != nil {
			t.Fatalf("flat seed insert %v: %v", e, err)
		}
		w++
	}
	e0 := c.Epochs()

	// Poison shard 0 through its ingest drainer.
	if err := c.Shard(0).ArmFault("ternary/batch-insert"); err != nil {
		t.Fatalf("ArmFault: %v", err)
	}
	if err := c.Submit(parmsf.Update{U: 2, V: 3, W: w}).Wait(); !errors.Is(err, parmsf.ErrPoisoned) {
		t.Fatalf("poisoning submit: %v", err)
	}
	if c.Shard(0).Poisoned() == nil {
		t.Fatal("shard 0 not poisoned")
	}

	// The poisoned shard fails fast; survivors keep accepting writes.
	if err := c.Insert(3, 4, w+1); !errors.Is(err, parmsf.ErrPoisoned) {
		t.Fatalf("insert on poisoned shard: %v", err)
	}
	for s, e := range [][2]int{{17, 18}, {33, 34}, {49, 50}} {
		if err := c.Insert(e[0], e[1], w+2+int64(s)); err != nil {
			t.Fatalf("surviving shard insert %v: %v", e, err)
		}
		if err := flat.Insert(e[0], e[1], w+2+int64(s)); err != nil {
			t.Fatalf("flat insert %v: %v", e, err)
		}
	}
	if err := c.Insert(47, 48, w+8); err != nil { // cross edge: coordinator survives too
		t.Fatalf("coordinator insert: %v", err)
	}
	if err := flat.Insert(47, 48, w+8); err != nil {
		t.Fatalf("flat cross insert: %v", err)
	}

	// Reads keep serving: the composed view holds shard 0's last healthy
	// epoch and reflects every survivor's new edge.
	e1 := c.Epochs()
	if e1[0] != e0[0] {
		t.Fatalf("poisoned shard epoch moved: %v -> %v", e0, e1)
	}
	if !c.Connected(0, 2) || !c.Connected(17, 18) || !c.Connected(47, 48) {
		t.Fatal("composed reads lost committed or surviving-shard state")
	}
	if got, want := c.Weight(), flat.Weight(); got != want {
		t.Fatalf("degraded Weight: cluster %d, flat %d", got, want)
	}

	// Recover heals shard 0 from its journal without disturbing anyone
	// else's epochs; full parity returns.
	if err := c.Shard(0).Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if c.Shard(0).Poisoned() != nil {
		t.Fatal("still poisoned after Recover")
	}
	e2 := c.Epochs()
	if e2[0] <= e1[0] {
		t.Fatalf("recovery did not publish a new shard 0 epoch: %v -> %v", e1, e2)
	}
	for i := 1; i < len(e2); i++ {
		if e2[i] != e1[i] {
			t.Fatalf("recovery disturbed forest %d's epoch: %v -> %v", i, e1, e2)
		}
	}
	if err := c.Insert(3, 4, w+1); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if err := flat.Insert(3, 4, w+1); err != nil {
		t.Fatalf("flat post-recovery insert: %v", err)
	}
	if c.Weight() != flat.Weight() || c.Size() != flat.Size() || c.Components() != flat.Components() {
		t.Fatalf("post-recovery parity lost: weight %d/%d size %d/%d comps %d/%d",
			c.Weight(), flat.Weight(), c.Size(), flat.Size(), c.Components(), flat.Components())
	}
}

// TestClusterShardAutoRecover arms a one-shot engine fault on a shard of
// an AutoRecover cluster, which a submitted insert fires on the shard's
// drainer: the failing submission still reports ErrPoisoned, but the
// shard is healthy again by the time the error is observed, and no other
// forest's epoch is disturbed.
func TestClusterShardAutoRecover(t *testing.T) {
	const n = 32 // Ranges(32,4): shard 1 owns 8..15
	c := cluster.MustNew(n, 4, cluster.Options{
		Shard: parmsf.Options{AutoRecover: true, QueueDepth: 8, MaxBatch: 4},
	})
	defer c.Close()
	w := int64(parmsf.MinWeight) + 1
	for _, e := range [][2]int{{8, 9}, {0, 1}, {16, 17}, {24, 25}} {
		if err := c.Insert(e[0], e[1], w); err != nil {
			t.Fatalf("seed %v: %v", e, err)
		}
		w++
	}
	e0 := c.Epochs()
	if err := c.Shard(1).ArmFault("ternary/batch-insert"); err != nil {
		t.Fatalf("ArmFault: %v", err)
	}
	if err := c.Submit(parmsf.Update{U: 9, V: 10, W: w}).Wait(); !errors.Is(err, parmsf.ErrPoisoned) {
		t.Fatalf("poisoning submit: %v", err)
	}
	if c.Shard(1).Poisoned() != nil {
		t.Fatal("AutoRecover left the shard poisoned")
	}
	if err := c.Insert(9, 10, w); err != nil {
		t.Fatalf("post-auto-recovery insert: %v", err)
	}
	if !c.Connected(8, 9) || !c.Connected(9, 10) {
		t.Fatal("auto-recovered shard lost state")
	}
	e1 := c.Epochs()
	for _, i := range []int{0, 2, 3, 4} {
		if e1[i] != e0[i] {
			t.Fatalf("auto-recovery disturbed forest %d's epoch: %v -> %v", i, e0, e1)
		}
	}
}
