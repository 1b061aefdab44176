package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestAllExperimentsSmoke runs every registered experiment at Tiny scale
// the way msfbench -batchjson does: the batch experiments (E12-E20) are
// measured once, into one report, and their tables print from it. No
// panics, and each output carries its table header. The report must be
// complete — every BENCH_batch.json section non-empty, each entry with
// its host recorded — and survive a JSON round trip, and the tables
// printed from the decoded report must be the ones printed before.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	rep := BuildBatchReport(Tiny)
	printed := map[string]string{}
	for _, id := range Order {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if !rep.Table(&buf, id) {
				Registry[id](&buf, Tiny)
			}
			out := buf.String()
			if !strings.Contains(out, "## "+id) {
				t.Fatalf("output of %s missing its table header:\n%s", id, out)
			}
			if !strings.Contains(out, "\n") || len(out) < 50 {
				t.Fatalf("output of %s suspiciously small:\n%s", id, out)
			}
			printed[id] = out
		})
	}
	t.Run("report", func(t *testing.T) {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"sort_ms", "insert_ns_per_edge", "nontree_ns_per_edge",
			"sparsify_batch", "sparsify_pipeline", "read_write", "bulk_build",
			"publish_delta", "recovery", "cluster"} {
			var entries []Host
			if err := json.Unmarshal(fields[key], &entries); err != nil {
				t.Fatalf("section %s: %v", key, err)
			}
			if len(entries) == 0 {
				t.Errorf("section %s is empty", key)
			}
			for i, h := range entries {
				if h.GOMAXPROCS < 1 || h.NProc < 1 {
					t.Errorf("section %s entry %d: host %+v not recorded", key, i, h)
				}
			}
		}
		var got BatchReport
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, rep) {
			t.Fatalf("report changed in a JSON round trip:\n got %+v\nwant %+v", got, *rep)
		}
		for _, id := range Order {
			var buf bytes.Buffer
			if got.Table(&buf, id) && buf.String() != printed[id] {
				t.Errorf("%s from the decoded report:\n%s\nprinted:\n%s", id, buf.String(), printed[id])
			}
		}
	})
}

// TestRegistryComplete: Order and Registry must stay in sync.
func TestRegistryComplete(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Fatalf("Order has %d ids, Registry %d", len(Order), len(Registry))
	}
	for _, id := range Order {
		if Registry[id] == nil {
			t.Fatalf("experiment %s in Order but not Registry", id)
		}
	}
}
