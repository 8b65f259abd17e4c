package rcoal

import "testing"

func FuzzParseMechanism(f *testing.F) {
	for _, seed := range []string{
		"baseline", "fss:4", "rss+rts:8", "rss-normal:2", "rss-normal:4:2.5",
		"delay", "delay:128", "shuffle", "nocoal", "no-coalescing",
		"", "fss:", "x:y", "fss:999999999999999999999", "DELAY:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseMechanism(spec)
		if err != nil {
			return // rejected input; fine
		}
		// Accepted specs must produce valid, nameable mechanisms...
		if err := m.ValidateFor(0); err != nil {
			t.Fatalf("ParseMechanism(%q) returned invalid mechanism: %v", spec, err)
		}
		if m.Name() == "" || m.Spec() == "" {
			t.Fatalf("ParseMechanism(%q) returned unnamed mechanism", spec)
		}
		// ...whose canonical spec round-trips: parsing Spec() again must
		// reconstruct the same mechanism (same spec, same display name).
		again, err := ParseMechanism(m.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", m.Spec(), spec, err)
		}
		if again.Spec() != m.Spec() || again.Name() != m.Name() {
			t.Fatalf("round-trip drift: %q -> (%q, %q) -> (%q, %q)",
				spec, m.Spec(), m.Name(), again.Spec(), again.Name())
		}
	})
}
