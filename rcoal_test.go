package rcoal

import (
	"strings"
	"testing"
)

func TestParseMechanism(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"baseline", "Baseline"},
		{"fss:4", "FSS(4)"},
		{"FSS+RTS:8", "FSS+RTS(8)"},
		{"fssrts:8", "FSS+RTS(8)"},
		{"rss:2", "RSS(2)"},
		{"rss+rts:16", "RSS+RTS(16)"},
		{" rss-normal:4 ", "RSS(normal)(4)"},
	}
	for _, c := range cases {
		cfg, err := ParseMechanism(c.spec)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if cfg.Name() != c.name {
			t.Errorf("%q parsed as %q, want %q", c.spec, cfg.Name(), c.name)
		}
	}
	for _, bad := range []string{"", "warp", "fss:0", "fss:3", "fss:x", "rss:33"} {
		if _, err := ParseMechanism(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// The quickstart flow through the public API only.
	cfg := DefaultGPUConfig()
	cfg.Defense = RSSRTS(8)
	srv, err := NewServer(cfg, []byte("facade test key!"))
	if err != nil {
		t.Fatal(err)
	}
	sample, err := srv.Encrypt(RandomPlaintext(1, 32), 7)
	if err != nil {
		t.Fatal(err)
	}
	if sample.TotalCycles <= 0 || len(sample.Ciphertexts) != 32 {
		t.Fatalf("bad sample: %+v", sample)
	}

	atk, err := NewAttacker(RSSRTS(8), 99)
	if err != nil {
		t.Fatal(err)
	}
	if atk.Name() == "" {
		t.Error("attacker unnamed")
	}
}

func TestFacadeTheoryAndMetrics(t *testing.T) {
	md, err := NewSecurityModel(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rho := md.RhoFSSRTS(16); rho < 0.02 || rho > 0.05 {
		t.Errorf("model rho = %v", rho)
	}
	if s := SamplesForAttack(0.03, 0.99); s < 5000 {
		t.Errorf("SamplesForAttack(0.03) = %v, want thousands", s)
	}
	if sc := RCoalScore(100, 2, 1, 1); sc != 50 {
		t.Errorf("RCoalScore = %v", sc)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	o := DefaultExperimentOptions()
	o.Samples = 5
	out, err := RunExperiment("fig10", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "coalescing worked examples") {
		t.Errorf("unexpected render: %s", out)
	}
	if _, err := RunExperiment("nope", o); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeModes(t *testing.T) {
	cfg := DefaultGPUConfig()
	srv, err := NewServer(cfg, []byte("facade modes key"))
	if err != nil {
		t.Fatal(err)
	}
	pts := RandomPlaintext(9, 32)

	// Decryption service round-trips.
	enc, err := srv.Encrypt(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := srv.Decrypt(enc.Ciphertexts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if dec.Ciphertexts[i] != pts[i] {
			t.Fatal("facade decrypt did not round-trip")
		}
	}

	// CTR sample type is exported.
	var ctr *CTRSample
	ctr, err = srv.EncryptCTR(7, pts, 3)
	if err != nil || len(ctr.Keystream) != 32 {
		t.Fatalf("CTR: %v", err)
	}

	// Decryption attacker constructs.
	if _, err := NewDecryptAttacker(RSSRTS(4), 1); err != nil {
		t.Fatal(err)
	}
}
