package main

import (
	"strings"
	"testing"

	"parmsf"
)

// TestModesQuick runs every mode at -quick size, -build and -cluster on the
// builtin edge list, plus the churn mode at its default size, the one CI
// runs. The churn stream at seed 1 ends with 28 live edges and a 15-edge
// forest at -quick size, and 282 and 47 at the default; a change to how
// the stream draws its ops moves those counts. Its EREW-checked forest's
// PRAM depth and work totals are pinned at both sizes too, as are those of
// the EREW-checked Build, so a change that moves any charge of the update
// path or of the static load fails here.
func TestModesQuick(t *testing.T) {
	n, edges, err := loadEdges("-", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"churn", func() (string, error) { return checkChurn(16, 500, 97, 1) },
			"final m=28, forest=15, PRAM depth=93328 work=1923670"},
		{"churn-default", func() (string, error) { return checkChurn(48, 3000, 97, 1) },
			"final m=282, forest=47, PRAM depth=539508 work=19990764"},
		{"snapshot", func() (string, error) { return checkSnapshot(16, 500, 1) }, "500 ops on n=16"},
		{"crash", func() (string, error) { return checkCrash(16, 500, 1) }, "on n=16"},
		{"build", func() (string, error) { return checkBuild(n, edges) }, "384 edges (0 rejected) on n=96 matches replay+kruskal across 4 configs (PRAM depth=21231 work=39090)"},
		{"cluster", func() (string, error) { return checkCluster(n, edges, 3) }, "384 inserts + 384 deletes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(report, tc.want) {
				t.Fatalf("report %q lacks %q", report, tc.want)
			}
		})
	}
}

// oversized reports one forest edge more than its subject has.
type oversized struct{ subject }

func (o oversized) Size() int { return o.subject.Size() + 1 }

// TestDisagreementFails plants a subject whose Size is one too high beside
// a sound one: apply accepts both, and agree must name the planted one.
func TestDisagreementFails(t *testing.T) {
	const n = 8
	sound, planted := parmsf.MustNew(n, parmsf.Options{}), parmsf.MustNew(n, parmsf.Options{})
	defer sound.Close()
	defer planted.Close()
	ref := newKruskal(n)
	subs := []named{{"sound", sound}, {"planted", oversized{planted}}}
	if _, err := apply(ref, subs, op{u: 0, v: 1, w: 5}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := agree(ref, subs[:1]); err != nil {
		t.Fatalf("sound subject disagrees: %v", err)
	}
	err := agree(ref, subs)
	if err == nil || !strings.Contains(err.Error(), "planted") {
		t.Fatalf("agree = %v, want an error naming the planted subject", err)
	}
}
