// The mechanism registry: one table mapping CLI spec keywords to
// constructors, shared by every binary (rcoal, rcoal-experiments,
// rcoal-theory) so the spec grammar exists in exactly one place.
//
// Grammar: keyword[:arg[:arg]] — e.g. "baseline", "fss:4",
// "fss+rts:8", "rss-normal:4:1.5", "delay:64", "shuffle", "nocoal".
// Keywords are case-insensitive; compact aliases ("fssrts") are kept
// for backward compatibility with the pre-registry facade grammar.

package mechanism

import (
	"fmt"
	"strconv"
	"strings"

	"rcoal/internal/core"
)

// Info describes one registered mechanism family for discovery UIs
// (`rcoal list-mechanisms`).
type Info struct {
	// Keyword is the primary spec keyword, e.g. "fss+rts".
	Keyword string
	// Aliases are alternative keywords accepted by Parse.
	Aliases []string
	// Usage shows the argument shape, e.g. "fss+rts:M".
	Usage string
	// Summary is the one-line description.
	Summary string
	// Examples are canonical specs seeding the defense-frontier grid
	// (and the fuzz corpus); they parse and round-trip by construction.
	Examples []string
	// Hidden entries parse but are omitted from List — spec spellings
	// kept only so every constructible mechanism's Spec() round-trips.
	Hidden bool
}

type entry struct {
	Info
	parse func(args []string) (Mechanism, error)
}

var (
	registry  []*entry
	byKeyword = map[string]*entry{}
)

// Register adds a mechanism family to the registry. It is called from
// init functions in this package; external packages extend the zoo by
// adding a citizen here. Duplicate keywords panic at init time.
func Register(info Info, parse func(args []string) (Mechanism, error)) {
	e := &entry{Info: info, parse: parse}
	for _, k := range append([]string{info.Keyword}, info.Aliases...) {
		if _, dup := byKeyword[k]; dup {
			panic(fmt.Sprintf("mechanism: duplicate registry keyword %q", k))
		}
		byKeyword[k] = e
	}
	registry = append(registry, e)
}

// Parse resolves a CLI spec string ("fss+rts:8", "delay:64") against
// the registry. It validates the result for the default warp size, so
// a bad spec surfaces as an error here — never as a panic downstream.
func Parse(spec string) (Mechanism, error) {
	fields := strings.Split(strings.ToLower(strings.TrimSpace(spec)), ":")
	e, ok := byKeyword[fields[0]]
	if !ok {
		return nil, fmt.Errorf("mechanism: unknown mechanism %q (known: %s)", spec, strings.Join(Keywords(), ", "))
	}
	m, err := e.parse(fields[1:])
	if err != nil {
		return nil, fmt.Errorf("mechanism: spec %q: %w", spec, err)
	}
	if err := m.ValidateFor(0); err != nil {
		return nil, fmt.Errorf("mechanism: spec %q: %w", spec, err)
	}
	return m, nil
}

// Canonical returns the spec standing for every mechanism that behaves
// exactly like m, so equal canonical specs may share measurements. A
// subwarp policy with one subwarp and fixed or skewed sizing, with or
// without RTS, collects the undefended datasets (a property test in
// internal/experiments pins this) and maps to "baseline"; every other
// mechanism maps to its own Spec.
func Canonical(m Mechanism) string {
	if c, ok := SubwarpConfig(m); ok && c.NumSubwarps == 1 &&
		(c.SizeDist == core.SizeFixed || c.SizeDist == core.SizeSkewed) {
		return "baseline"
	}
	return m.Spec()
}

// List returns the visible registry entries in registration order.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		if !e.Hidden {
			out = append(out, e.Info)
		}
	}
	return out
}

// Keywords returns the visible primary keywords in registration order.
func Keywords() []string {
	var out []string
	for _, e := range registry {
		if !e.Hidden {
			out = append(out, e.Keyword)
		}
	}
	return out
}

// FrontierSpecs returns the canonical example specs of every visible
// registered mechanism, in registration order — the default grid of
// the ext-defense-frontier experiment. The first spec is always
// "baseline" (the normalization reference).
func FrontierSpecs() []string {
	var out []string
	for _, e := range registry {
		if !e.Hidden {
			out = append(out, e.Examples...)
		}
	}
	return out
}

// specArgs parses the ":"-separated argument list for the subwarp
// families: an optional subwarp count (default 1) and, where allowed,
// an optional sigma.
func specArgs(args []string, wantSigma bool) (m int, sigma float64, err error) {
	m = 1
	if len(args) >= 1 && args[0] != "" {
		m, err = strconv.Atoi(args[0])
		if err != nil {
			return 0, 0, fmt.Errorf("bad subwarp count %q", args[0])
		}
	}
	maxArgs := 1
	if wantSigma {
		maxArgs = 2
		if len(args) >= 2 {
			sigma, err = strconv.ParseFloat(args[1], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad sigma %q", args[1])
			}
		}
	}
	if len(args) > maxArgs {
		return 0, 0, fmt.Errorf("too many arguments (%d)", len(args))
	}
	return m, sigma, nil
}

func noArgs(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %d", len(args))
	}
	return nil
}

func init() {
	Register(Info{
		Keyword: "baseline",
		Usage:   "baseline",
		Summary: "undefended whole-warp coalescing (the attacked GPU)",
		Examples: []string{
			"baseline",
		},
	}, func(args []string) (Mechanism, error) {
		if err := noArgs(args); err != nil {
			return nil, err
		}
		return Baseline(), nil
	})
	Register(Info{
		Keyword: "fss",
		Usage:   "fss:M",
		Summary: "RCoal fixed-sized subwarps: M equal groups, in-order threads",
		Examples: []string{
			"fss:4",
			"fss:8",
		},
	}, func(args []string) (Mechanism, error) {
		m, _, err := specArgs(args, false)
		if err != nil {
			return nil, err
		}
		return FSS(m), nil
	})
	Register(Info{
		Keyword: "fss+rts",
		Aliases: []string{"fssrts"},
		Usage:   "fss+rts:M",
		Summary: "RCoal FSS with random thread-to-subwarp allocation",
		Examples: []string{
			"fss+rts:8",
		},
	}, func(args []string) (Mechanism, error) {
		m, _, err := specArgs(args, false)
		if err != nil {
			return nil, err
		}
		return FSSRTS(m), nil
	})
	Register(Info{
		Keyword: "rss",
		Usage:   "rss:M",
		Summary: "RCoal random-sized subwarps (skewed sizing, drawn per launch)",
		Examples: []string{
			"rss:8",
		},
	}, func(args []string) (Mechanism, error) {
		m, _, err := specArgs(args, false)
		if err != nil {
			return nil, err
		}
		return RSS(m), nil
	})
	Register(Info{
		Keyword: "rss+rts",
		Aliases: []string{"rssrts"},
		Usage:   "rss+rts:M",
		Summary: "RCoal RSS with random thread allocation (strongest family)",
		Examples: []string{
			"rss+rts:4",
			"rss+rts:8",
		},
	}, func(args []string) (Mechanism, error) {
		m, _, err := specArgs(args, false)
		if err != nil {
			return nil, err
		}
		return RSSRTS(m), nil
	})
	Register(Info{
		Keyword: "rss-normal",
		Aliases: []string{"rssnormal"},
		Usage:   "rss-normal:M[:sigma]",
		Summary: "RSS with normal-distributed sizes (Figure 9 comparison point)",
		Examples: []string{
			"rss-normal:8",
		},
	}, func(args []string) (Mechanism, error) {
		m, sigma, err := specArgs(args, true)
		if err != nil {
			return nil, err
		}
		return RSSNormal(m, sigma), nil
	})
	// Hidden round-trip spelling for Subwarp(core.Config) combinations
	// that have no named constructor (normal sizing + RTS).
	Register(Info{
		Keyword: "rss-normal+rts",
		Aliases: []string{"rssnormal+rts"},
		Usage:   "rss-normal+rts:M[:sigma]",
		Summary: "RSS normal sizing with random thread allocation",
		Hidden:  true,
	}, func(args []string) (Mechanism, error) {
		m, sigma, err := specArgs(args, true)
		if err != nil {
			return nil, err
		}
		cfg := core.RSSNormal(m, sigma)
		cfg.RandomThreads = true
		return Subwarp(cfg), nil
	})

	// Non-RCoal citizens (obfuscation.go), registered after the subwarp
	// families so the frontier grid leads with the paper's mechanisms.
	Register(Info{
		Keyword: "delay",
		Usage:   "delay:D",
		Summary: "randomized delay injection: +uniform[0,D] cycles per memory issue (Karimi et al.)",
		Examples: []string{
			"delay:16",
			"delay:64",
		},
	}, func(args []string) (Mechanism, error) {
		max := DefaultDelayCycles
		if len(args) > 1 {
			return nil, fmt.Errorf("too many arguments (%d)", len(args))
		}
		if len(args) == 1 && args[0] != "" {
			var err error
			if max, err = strconv.Atoi(args[0]); err != nil {
				return nil, fmt.Errorf("bad delay bound %q", args[0])
			}
		}
		return Delay(max), nil
	})
	Register(Info{
		Keyword: "shuffle",
		Usage:   "shuffle",
		Summary: "access-pattern shuffling: random per-request transaction order (Karimi et al.)",
		Examples: []string{
			"shuffle",
		},
	}, func(args []string) (Mechanism, error) {
		if err := noArgs(args); err != nil {
			return nil, err
		}
		return Shuffle(), nil
	})
	Register(Info{
		Keyword: "nocoal",
		Aliases: []string{"no-coalescing", "uncoalesced"},
		Usage:   "nocoal",
		Summary: "no-coalescing strawman: one transaction per active thread, MCU bypassed",
		Examples: []string{
			"nocoal",
		},
	}, func(args []string) (Mechanism, error) {
		if err := noArgs(args); err != nil {
			return nil, err
		}
		return NoCoal(), nil
	})
}
