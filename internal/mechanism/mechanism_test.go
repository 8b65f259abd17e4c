package mechanism

import (
	"reflect"
	"strings"
	"testing"

	"rcoal/internal/core"
	"rcoal/internal/rng"
)

// TestSubwarpPlanIdentity is the refactor's byte-identity differential
// at the plan level: for every RCoal family × subwarp count × seed, the
// Mechanism path (NewLaunch) must realize exactly the plan the
// pre-Mechanism core.Config path (NewPlan) drew, consuming the same
// stream positions.
func TestSubwarpPlanIdentity(t *testing.T) {
	families := []struct {
		name string
		mech func(m int) Mechanism
		cfg  func(m int) core.Config
	}{
		{"fss", FSS, core.FSS},
		{"fss+rts", FSSRTS, core.FSSRTS},
		{"rss", RSS, core.RSS},
		{"rss+rts", RSSRTS, core.RSSRTS},
		{"rss-normal", func(m int) Mechanism { return RSSNormal(m, 1.5) },
			func(m int) core.Config { return core.RSSNormal(m, 1.5) }},
	}
	seeds := []uint64{1, 42, 0xdecaf}
	for _, f := range families {
		for _, m := range []int{2, 4, 8} {
			for _, seed := range seeds {
				r := rng.New(seed)
				launch, err := f.mech(m).NewLaunch(core.DefaultWarpSize, r)
				if err != nil {
					t.Fatalf("%s:%d seed %d: %v", f.name, m, seed, err)
				}
				want := f.cfg(m).NewPlan(rng.New(seed))
				if !reflect.DeepEqual(launch.Plan, want) {
					t.Errorf("%s:%d seed %d: mechanism plan differs from core.NewPlan\n got %v\nwant %v",
						f.name, m, seed, launch.Plan, want)
				}
				// Stream position identity: the next draw after NewLaunch
				// must match the next draw after NewPlan.
				ref := rng.New(seed)
				f.cfg(m).NewPlan(ref)
				if got, want := r.Uint64(), ref.Uint64(); got != want {
					t.Errorf("%s:%d seed %d: stream position diverged after launch", f.name, m, seed)
				}
			}
		}
	}
	// Baseline consumes zero draws and realizes the whole-warp plan.
	r := rng.New(7)
	launch, err := Baseline().NewLaunch(core.DefaultWarpSize, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(launch.Plan, core.Baseline().NewPlan(rng.New(7))) {
		t.Error("baseline plan differs from core baseline plan")
	}
	if r.Uint64() != rng.New(7).Uint64() {
		t.Error("baseline NewLaunch consumed random draws")
	}
}

// TestWholeWarpMechanismsDrawNothing pins the stream-stability
// contract: defenses that leave the subwarp plan whole-warp must
// consume ZERO draws at launch time (their randomness flows through the
// per-request hooks instead).
func TestWholeWarpMechanismsDrawNothing(t *testing.T) {
	for _, m := range []Mechanism{Baseline(), Delay(64), Shuffle(), NoCoal()} {
		r := rng.New(99)
		launch, err := m.NewLaunch(32, r)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Uint64() != rng.New(99).Uint64() {
			t.Errorf("%s: NewLaunch consumed launch-time draws", m.Name())
		}
		if got := launch.Plan.WarpSize(); got != 32 {
			t.Errorf("%s: plan warp size %d, want 32", m.Name(), got)
		}
		if got := launch.Plan.NumSubwarps(); got != 1 {
			t.Errorf("%s: plan has %d subwarps, want whole-warp", m.Name(), got)
		}
	}
}

func TestLaunchShape(t *testing.T) {
	cases := []struct {
		mech      Mechanism
		perThread bool
		delay     bool
		shuffle   bool
	}{
		{Baseline(), false, false, false},
		{RSSRTS(8), false, false, false},
		{Delay(64), false, true, false},
		{Shuffle(), false, false, true},
		{NoCoal(), true, false, false},
	}
	for _, c := range cases {
		l, err := c.mech.NewLaunch(32, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", c.mech.Name(), err)
		}
		if l.PerThread != c.perThread {
			t.Errorf("%s: PerThread = %v", c.mech.Name(), l.PerThread)
		}
		if (l.Delay != nil) != c.delay || (l.Shuffle != nil) != c.shuffle {
			t.Errorf("%s: hooks (delay=%v, shuffle=%v)", c.mech.Name(), l.Delay != nil, l.Shuffle != nil)
		}
		if want := c.delay || c.shuffle; l.HasHooks() != want {
			t.Errorf("%s: HasHooks = %v, want %v", c.mech.Name(), l.HasHooks(), want)
		}
	}
}

func TestDelayHookBounds(t *testing.T) {
	l, err := Delay(16).NewLaunch(32, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	seen := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		d := l.Delay(r)
		if d < 0 || d > 16 {
			t.Fatalf("delay %d outside [0, 16]", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("delay hook drew only %d distinct values in [0,16]", len(seen))
	}
}

func TestShuffleHookPermutes(t *testing.T) {
	l, err := Shuffle().NewLaunch(32, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	orig := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	tx := append([]uint64(nil), orig...)
	r := rng.New(3)
	moved := false
	for i := 0; i < 20 && !moved; i++ {
		l.Shuffle(r, tx)
		counts := map[uint64]int{}
		for _, v := range tx {
			counts[v]++
		}
		for _, v := range orig {
			if counts[v] != 1 {
				t.Fatalf("shuffle lost or duplicated %d: %v", v, tx)
			}
		}
		moved = !reflect.DeepEqual(tx, orig)
	}
	if !moved {
		t.Error("20 shuffles never changed the order")
	}
}

// TestParseSpecRoundTrip: every visible frontier spec, every alias, and
// the hidden round-trip spellings parse, and parsing a mechanism's
// canonical Spec() reconstructs an identical mechanism.
func TestParseSpecRoundTrip(t *testing.T) {
	specs := append([]string{}, FrontierSpecs()...)
	specs = append(specs,
		"fssrts:8", "rssrts:4", "rssnormal:8", "no-coalescing", "uncoalesced",
		"rss-normal:4:2.5", "rss-normal+rts:4", "rssnormal+rts:4:1.5",
		"delay", "FSS:4", " rss+rts:8 ",
	)
	for _, spec := range specs {
		m, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		again, err := Parse(m.Spec())
		if err != nil {
			t.Errorf("canonical spec %q (from %q) does not re-parse: %v", m.Spec(), spec, err)
			continue
		}
		if again.Spec() != m.Spec() || again.Name() != m.Name() {
			t.Errorf("round-trip drift: %q -> (%q, %q) -> (%q, %q)",
				spec, m.Spec(), m.Name(), again.Spec(), again.Name())
		}
	}
	// Constructor Spec()s round-trip too, including the RTS+normal
	// combination that only the hidden registry spelling covers.
	ctors := []Mechanism{
		Baseline(), FSS(4), FSSRTS(8), RSS(8), RSSRTS(4), RSSNormal(8, 1.5),
		Subwarp(func() core.Config { c := core.RSSNormal(4, 2); c.RandomThreads = true; return c }()),
		Delay(64), Shuffle(), NoCoal(),
	}
	for _, m := range ctors {
		again, err := Parse(m.Spec())
		if err != nil {
			t.Errorf("%s: Spec() %q does not parse: %v", m.Name(), m.Spec(), err)
			continue
		}
		if again.Spec() != m.Spec() || again.Name() != m.Name() {
			t.Errorf("%s: Spec() %q round-trips to (%q, %q)", m.Name(), m.Spec(), again.Spec(), again.Name())
		}
	}
}

// TestCanonical: the single-subwarp fixed and skewed policies, with or
// without RTS, collapse to "baseline"; everything else keeps its Spec,
// and a canonical spec is its own canonical form.
func TestCanonical(t *testing.T) {
	for spec, want := range map[string]string{
		"baseline": "baseline", "fss:1": "baseline", "fss+rts:1": "baseline",
		"rss:1": "baseline", "RSSRTS:1": "baseline",
		"fss:2": "fss:2", "rss+rts:8": "rss+rts:8", "fss:32": "fss:32",
		"rss-normal:1": "rss-normal:1", "rss-normal+rts:1": "rss-normal+rts:1",
		"delay:64": "delay:64", "shuffle": "shuffle", "nocoal": "nocoal",
	} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got := Canonical(m)
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", spec, got, want)
		}
		again, err := Parse(got)
		if err != nil {
			t.Fatalf("canonical spec %q does not parse: %v", got, err)
		}
		if Canonical(again) != got {
			t.Errorf("Canonical(%q) = %q, not a fixed point", got, Canonical(again))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "warp", "fss:0", "fss:3", "fss:x", "fss:4:4", "rss:33",
		"baseline:1", "nocoal:1", "shuffle:2", "delay:0", "delay:-1",
		"delay:x", "delay:1:2", "rss-normal:8:x", "fss:999999999999999999999",
	}
	for _, spec := range bad {
		if m, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted: %v", spec, m.Name())
		}
	}
	// Parse errors mention the known keywords for unknown mechanisms.
	_, err := Parse("warp")
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("unknown-keyword error does not list keywords: %v", err)
	}
}

func TestRegistryListing(t *testing.T) {
	list := List()
	if len(list) == 0 || list[0].Keyword != "baseline" {
		t.Fatalf("List() = %v, want baseline first", list)
	}
	kws := Keywords()
	if len(kws) != len(list) {
		t.Errorf("Keywords() has %d entries, List() %d", len(kws), len(list))
	}
	for _, info := range list {
		if info.Hidden {
			t.Errorf("List() includes hidden entry %q", info.Keyword)
		}
		if info.Summary == "" || info.Usage == "" {
			t.Errorf("%q: missing usage or summary", info.Keyword)
		}
		if len(info.Examples) == 0 {
			t.Errorf("%q: no examples (frontier grid would skip it)", info.Keyword)
		}
	}
	fs := FrontierSpecs()
	if len(fs) == 0 || fs[0] != "baseline" {
		t.Fatalf("FrontierSpecs() = %v, want baseline first", fs)
	}
	seen := map[string]bool{}
	for _, s := range fs {
		m, err := Parse(s)
		if err != nil {
			t.Errorf("frontier spec %q does not parse: %v", s, err)
			continue
		}
		if m.Spec() != s {
			t.Errorf("frontier spec %q is not canonical (Spec() = %q)", s, m.Spec())
		}
		if seen[s] {
			t.Errorf("frontier spec %q duplicated", s)
		}
		seen[s] = true
	}
	// The zoo the issue requires: subwarp families plus delay, shuffle,
	// and the no-coalescing strawman.
	for _, want := range []string{"fss:4", "rss+rts:8", "delay:64", "shuffle", "nocoal"} {
		if !seen[want] {
			t.Errorf("frontier grid missing %q (have %v)", want, fs)
		}
	}
}

func TestSubwarpConfigProbe(t *testing.T) {
	cfg, ok := SubwarpConfig(RSSRTS(8))
	if !ok || cfg.NumSubwarps != 8 || !cfg.RandomThreads {
		t.Errorf("SubwarpConfig(RSSRTS(8)) = %+v, %v", cfg, ok)
	}
	for _, m := range []Mechanism{Delay(64), Shuffle(), NoCoal()} {
		if _, ok := SubwarpConfig(m); ok {
			t.Errorf("SubwarpConfig(%s) claimed a subwarp policy", m.Name())
		}
	}
}

func TestValidateForErrors(t *testing.T) {
	if err := FSS(3).ValidateFor(32); err == nil {
		t.Error("FSS(3) accepted for warp 32")
	}
	if err := FSS(8).ValidateFor(32); err != nil {
		t.Errorf("FSS(8): %v", err)
	}
	// Warp-size mismatch between a sized policy and the hardware.
	mis := Subwarp(core.Config{NumSubwarps: 2, SizeDist: core.SizeFixed, WarpSize: 16})
	if err := mis.ValidateFor(32); err == nil {
		t.Error("warp-16 policy accepted on warp-32 hardware")
	}
	if _, err := mis.NewLaunch(32, rng.New(1)); err == nil {
		t.Error("NewLaunch accepted mismatched warp size")
	}
	if err := Delay(0).ValidateFor(32); err == nil {
		t.Error("Delay(0) accepted")
	}
	if _, err := Delay(-5).NewLaunch(32, rng.New(1)); err == nil {
		t.Error("Delay(-5) launch accepted")
	}
}

func TestWholeWarpPlanShape(t *testing.T) {
	p := WholeWarpPlan(32)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if p.NumSubwarps() != 1 || p.WarpSize() != 32 {
		t.Errorf("WholeWarpPlan(32) = %d subwarps, %d threads", p.NumSubwarps(), p.WarpSize())
	}
}
