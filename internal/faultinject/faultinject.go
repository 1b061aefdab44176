// Package faultinject provides deterministic, named crash points for the
// fault-containment surface of the serving plane. Instrumented code calls
// Injector.Hit(point) at places where a violated invariant would panic in
// production — batch application in the core engine, ring surgeries in the
// ternary wrapper, node application in the sparsification tree, snapshot
// publication. A disarmed injector (the steady
// state, and a nil *Injector) makes Hit a nil check plus one atomic load;
// an armed point panics with a Crash payload on its configured hit number
// and then disarms itself, so recovery code rebuilding through the very
// code path that crashed does not re-trip the same point.
//
// Injectors are instance-scoped, not process-global: every Forest owns one
// and threads it through its engine stack, so a test can crash one forest
// while its unfailed twin — built in the same process for bit-identical
// comparison after recovery — runs the same workload untouched.
//
// Point names are registered at package init time by the packages that hit
// them; Points reports the full set compiled into the binary, which the
// fault-injection tests sweep.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Crash is the panic payload thrown by an armed crash point. Containment
// layers treat it exactly like any other panic; tests assert on the Point.
type Crash struct {
	Point string // the registered point name that fired
}

func (c Crash) String() string { return "faultinject: injected crash at " + c.Point }

// registry holds every point name compiled into the binary (populated by
// package-level Register calls in the instrumented packages).
var (
	regMu    sync.Mutex
	registry = make(map[string]bool)
)

// Register records a crash point name (idempotent) and returns it, so
// instrumented packages declare points as
//
//	var fpApply = faultinject.Register("core/apply-batch")
//
// and hit them by the returned name.
func Register(point string) string {
	regMu.Lock()
	registry[point] = true
	regMu.Unlock()
	return point
}

// Points returns every registered crash point name, sorted. Complete only
// once the instrumented packages have been linked and initialized (any
// importer of the full engine stack qualifies).
func Points() []string {
	regMu.Lock()
	out := make([]string, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	regMu.Unlock()
	sort.Strings(out)
	return out
}

// Injector holds the armed crash points of one owner. The zero value and
// the nil pointer are valid, permanently-disarmed injectors.
type Injector struct {
	armed atomic.Int32 // number of currently armed points (Hit fast path)
	mu    sync.Mutex
	rem   map[string]int // point -> hits remaining before it fires
}

// New returns a disarmed injector.
func New() *Injector { return &Injector{} }

// Arm schedules point to panic on its after-th upcoming Hit (after < 1 is
// treated as 1: the very next hit). The point fires exactly once and then
// disarms itself. Arming an unregistered point is an error, so a typo in a
// test or a stale CI matrix entry fails loudly instead of never firing.
func (in *Injector) Arm(point string, after int) error {
	regMu.Lock()
	known := registry[point]
	regMu.Unlock()
	if !known {
		return fmt.Errorf("faultinject: unknown crash point %q (registered: %s)", point, strings.Join(Points(), ", "))
	}
	if after < 1 {
		after = 1
	}
	in.mu.Lock()
	if in.rem == nil {
		in.rem = make(map[string]int)
	}
	if _, dup := in.rem[point]; !dup {
		in.armed.Add(1)
	}
	in.rem[point] = after
	in.mu.Unlock()
	return nil
}

// ArmSpec arms a comma-separated list of "point" or "point:N" specs (N = the
// hit number that fires, default 1), the format parmsf.Forest.ArmFault
// takes.
func (in *Injector) ArmSpec(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, after := part, 1
		if i := strings.LastIndexByte(part, ':'); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad hit count in spec %q", part)
			}
			point, after = part[:i], n
		}
		if err := in.Arm(point, after); err != nil {
			return err
		}
	}
	return nil
}

// Armed reports whether any point is currently armed.
func (in *Injector) Armed() bool { return in != nil && in.armed.Load() > 0 }

// Hit is the instrumentation call: a no-op unless point is armed, in which
// case it decrements the point's countdown and — on the configured hit —
// disarms the point and panics with Crash{point}. Safe from any goroutine.
func (in *Injector) Hit(point string) {
	if in == nil || in.armed.Load() == 0 {
		return
	}
	in.fire(point)
}

func (in *Injector) fire(point string) {
	in.mu.Lock()
	rem, ok := in.rem[point]
	if !ok {
		in.mu.Unlock()
		return
	}
	if rem > 1 {
		in.rem[point] = rem - 1
		in.mu.Unlock()
		return
	}
	delete(in.rem, point)
	in.armed.Add(-1)
	in.mu.Unlock()
	panic(Crash{Point: point})
}
