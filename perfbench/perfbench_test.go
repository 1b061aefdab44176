package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"

	"parmsf"
	"parmsf/cluster"
	"parmsf/internal/baseline"
)

// streams are the generators of the three workloads, at test sizes.
var streams = map[string]func(seed uint64) *gen{
	"uniform": func(seed uint64) *gen { return newGen(seed, 0, uniformPairs(300)) },
	"sharded": func(seed uint64) *gen {
		place := cluster.Ranges(300, 2)
		return newGen(seed, 0, shardPairs(300, 2, clusterCross, place.Shard))
	},
}

// encode runs a generator like a workload does (a base graph, then mixed
// updates and delete/insert windows) and serializes the op stream.
func encode(g *gen) []byte {
	var buf bytes.Buffer
	put := func(o op) {
		del := uint8(0)
		if o.Del {
			del = 1
		}
		_ = binary.Write(&buf, binary.LittleEndian, struct {
			Del  uint8
			U, V int64
			W    int64
		}{del, int64(o.U), int64(o.V), o.W})
	}
	for _, e := range g.grow(600) {
		put(op{U: e.U, V: e.V, W: e.W})
	}
	for i := 0; i < 2000; i++ {
		put(g.mixed())
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 16; j++ {
			put(g.delete())
		}
		for j := 0; j < 16; j++ {
			put(g.insert())
		}
	}
	return buf.Bytes()
}

func TestStreamsDeterministic(t *testing.T) {
	for name, mk := range streams {
		a, b := encode(mk(7)), encode(mk(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different op streams", name)
		}
		if bytes.Equal(a, encode(mk(8))) {
			t.Errorf("%s: seeds 7 and 8 produced the same op stream", name)
		}
	}
}

func TestStreamsValid(t *testing.T) {
	for name, mk := range streams {
		g := mk(3)
		live := map[[2]int]bool{}
		weights := map[int64]bool{}
		check := func(o op) {
			k := [2]int{o.U, o.V}
			switch {
			case o.U >= o.V || o.U < 0 || o.V >= 300:
				t.Fatalf("%s: malformed pair %+v", name, o)
			case o.Del && !live[k]:
				t.Fatalf("%s: delete of absent edge %+v", name, o)
			case !o.Del && live[k]:
				t.Fatalf("%s: duplicate live insert %+v", name, o)
			case !o.Del && (weights[o.W] || o.W < parmsf.MinWeight):
				t.Fatalf("%s: reused or invalid weight %+v", name, o)
			}
			live[k] = !o.Del
			if !o.Del {
				weights[o.W] = true
			}
		}
		for _, e := range g.grow(600) {
			check(op{U: e.U, V: e.V, W: e.W})
		}
		for i := 0; i < 5000; i++ {
			check(g.mixed())
		}
		for i := 0; i < 50; i++ {
			for j := 0; j < 16; j++ {
				check(g.delete())
			}
			for j := 0; j < 16; j++ {
				check(g.insert())
			}
		}
		n := 0
		for k, ok := range live {
			if ok {
				n++
				if _, tracked := g.at[k]; !tracked {
					t.Fatalf("%s: live edge %v missing from the generator's set", name, k)
				}
			}
		}
		if n != len(g.live) {
			t.Fatalf("%s: %d live edges, generator tracks %d", name, n, len(g.live))
		}
	}
}

func TestShardPairsCrossShare(t *testing.T) {
	place := cluster.Ranges(1000, 2)
	g := newGen(1, 0, shardPairs(1000, 2, clusterCross, place.Shard))
	cross := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		u, v := g.pair(g.rng)
		if place.Shard(u) != place.Shard(v) {
			cross++
		}
	}
	if share := float64(cross) / draws; share < 0.08 || share > 0.12 {
		t.Fatalf("cross-shard share %.3f, want about 0.10", share)
	}
}

func TestKruskalMatchesBaseline(t *testing.T) {
	g := newGen(5, 0, uniformPairs(60))
	live := g.grow(150)
	ref := baseline.NewKruskal(60)
	for _, e := range live {
		if err := ref.InsertEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	want := answer{weight: ref.Weight(), size: ref.ForestSize(), components: 60 - ref.ForestSize(), edges: collect(ref.ForestEdges)}
	if err := checkAnswer(kruskal(60, live), want); err != nil {
		t.Fatalf("kruskal differs from internal/baseline: %v", err)
	}
}

func TestGateRejectsCorruptAnswers(t *testing.T) {
	g := newGen(9, 0, uniformPairs(80))
	live := g.grow(200)
	f, errs, err := parmsf.Build(80, live, parmsf.Options{})
	if err != nil || firstErr(errs) != nil {
		t.Fatal(err, errs)
	}
	defer f.Close()
	want := kruskal(80, live)
	got := forestAnswer(f)
	if err := checkAnswer(got, want); err != nil {
		t.Fatalf("correct forest rejected: %v", err)
	}
	corrupt := map[string]func(a *answer){
		"weight":     func(a *answer) { a.weight++ },
		"size":       func(a *answer) { a.size-- },
		"components": func(a *answer) { a.components++ },
		"edge":       func(a *answer) { a.edges[len(a.edges)/2].W++ },
		"dropped":    func(a *answer) { a.edges = a.edges[1:] },
	}
	for name, c := range corrupt {
		bad := got
		bad.edges = append([]parmsf.Edge(nil), got.edges...)
		c(&bad)
		if checkAnswer(bad, want) == nil {
			t.Errorf("gate accepted an answer with a corrupted %s", name)
		}
	}
}

// TestComposedStackMatchesForest applies the same windows to the
// benchmark's composed stack and to a public forest, in both engine
// configurations the workloads use.
func TestComposedStackMatchesForest(t *testing.T) {
	for _, opt := range []parmsf.Options{{}, {Sparsify: true, Workers: 2}} {
		g := newGen(11, 0, uniformPairs(64))
		spec := forestSpec{n: 64, opt: opt, base: g.grow(256)}
		var wins []window
		for i := 0; i < 30; i++ {
			del := window{del: true}
			ins := window{}
			for j := 0; j < 1+i%5; j++ {
				del.ops = append(del.ops, g.delete())
				ins.ops = append(ins.ops, g.insert())
			}
			wins = append(wins, del, ins)
		}
		tr := newTracer()
		c := buildStacks([]forestSpec{spec}, tr)
		if err := c.replay(wins); err != nil {
			t.Fatal(err)
		}
		got := c.stacks[0].answer()
		c.close()
		pr, err := replayPublic([]forestSpec{spec}, wins)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(got, pr.answers[0]); err != nil {
			t.Errorf("%+v: composed stack differs from the public forest: %v", opt, err)
		}
		if err := checkAnswer(got, kruskal(64, g.live)); err != nil {
			t.Errorf("%+v: composed stack differs from Kruskal: %v", opt, err)
		}
		if lt := tr.layers(); lt["core"] == nil || lt["ternary"] == nil || lt["parmsf.commit"] == nil {
			t.Errorf("%+v: missing layer spans: %v", opt, lt)
		}
	}
}

// TestRouterMatchesCluster replays routed windows on per-forest public
// forests and checks the composed result against a real cluster.
func TestRouterMatchesCluster(t *testing.T) {
	place := cluster.Ranges(200, 2)
	g := newGen(13, 0, shardPairs(200, 2, 30, place.Shard))
	c := cluster.MustNew(200, 2, cluster.Options{Placement: place})
	defer c.Close()
	rt := newRouter(200, 2, place)
	var wins []window
	for i := 0; i < 40; i++ {
		ops := make([]op, 16)
		for j := range ops {
			if i < 10 {
				ops[j] = g.insert()
			} else {
				ops[j] = g.mixed()
			}
		}
		for j, p := range c.SubmitBatch(updates(ops)) {
			if err := p.Wait(); err != nil {
				t.Fatalf("op %d: %v", j, err)
			}
		}
		wins = append(wins, rt.windows(ops, false)...)
	}
	specs := []forestSpec{{n: len(rt.verts[0])}, {n: len(rt.verts[1])}, {n: 200}}
	pr, err := replayPublic(specs, wins)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(rt.global(200, pr.answers), clusterAnswer(c)); err != nil {
		t.Fatalf("routed replay differs from the cluster: %v", err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the program
// reports in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
}
