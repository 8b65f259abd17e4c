package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcoal/internal/experiments"
)

// TestCheckOutputs is the table for checkOutputs, the pre-compute
// output checks local and serve mode share.
func TestCheckOutputs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	readOnly := filepath.Join(dir, "ro")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name               string
		csv, trace, flight string
		wantErr            string // substring; empty means no error
		needsPerms         bool
	}{
		{name: "all unset"},
		{name: "csv dir", csv: dir},
		{name: "csv missing", csv: missing, wantErr: "-csv"},
		{name: "csv is a file", csv: file, wantErr: "not a directory"},
		{name: "csv read-only", csv: readOnly, wantErr: "not writable", needsPerms: true},
		{name: "trace in existing dir", trace: filepath.Join(dir, "trace.json")},
		{name: "bare trace file name", trace: "trace.json"},
		{name: "trace parent missing", trace: filepath.Join(missing, "trace.json"), wantErr: "-trace-out"},
		{name: "trace parent is a file", trace: filepath.Join(file, "trace.json"), wantErr: "-trace-out"},
		{name: "flight in existing dir", flight: filepath.Join(dir, "flight.json")},
		{name: "flight parent missing", flight: filepath.Join(missing, "flight.json"), wantErr: "-flight-out"},
		{name: "all valid", csv: dir, trace: filepath.Join(dir, "t.json"), flight: filepath.Join(dir, "f.json")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.needsPerms && os.Geteuid() == 0 {
				t.Skip("root bypasses directory permissions")
			}
			err := checkOutputs(tc.csv, tc.trace, tc.flight)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("no error, want one mentioning %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The writability probe leaves nothing behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".rcoal-probe-") {
			t.Errorf("probe file %s left in the -csv directory", e.Name())
		}
	}
}

func TestParseMechanisms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		list    string
		want    []string
		wantErr string // substring; empty means no error
	}{
		{name: "empty", list: ""},
		{name: "one", list: "rss+rts:8", want: []string{"rss+rts:8"}},
		{name: "trimmed", list: " baseline , delay:64", want: []string{"baseline", "delay:64"}},
		{name: "canonical spelling", list: "RSS+RTS:8,rssrts:8", want: []string{"rss+rts:8", "rss+rts:8"}},
		{name: "unknown keyword", list: "bogus:9", wantErr: "bogus"},
		{name: "bad after good", list: "baseline,fss:0", wantErr: "fss:0"},
		{name: "empty spec", list: "baseline,,delay:64", wantErr: "-mechanisms"},
		{name: "trailing comma", list: "baseline,", wantErr: "-mechanisms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseMechanisms(tc.list)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("no error (got %q), want one mentioning %q", got, tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("specs = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestMain lets a test run this binary's main in a child process: the
// test binary re-executes itself with mainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const mainEnv = "RCOAL_EXPERIMENTS_RUN_MAIN"

// requireFailFast runs main in a child process with args and requires
// it to exit with code 2, report wantErr on stderr, print no experiment
// report, and never start serving.
func requireFailFast(t *testing.T, wantErr string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2; stderr:\n%s", err, stderr.String())
	}
	if want := "rcoal-experiments: " + wantErr; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not contain %q:\n%s", want, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("experiments ran before the failure:\n%s", stdout.String())
	}
	if strings.Contains(stderr.String(), "serving on") {
		t.Errorf("coordinator started serving before failing:\n%s", stderr.String())
	}
}

// TestStdoutDeterministic: the stdout report carries no wall time and
// keeps -run order, so the same experiments print identical bytes
// serially (-workers 1) and with experiments and cells running
// concurrently (the default). The second list mixes a cell grid
// (fig7), a scatter figure (fig8) and an experiment with no grid
// (ext-selective).
func TestStdoutDeterministic(t *testing.T) {
	for _, run := range [][]string{
		{"-run", "table2,fig9"},
		{"-run", "fig7,fig8,ext-selective", "-samples", "20"},
	} {
		var outs [2]string
		for i, extra := range [][]string{{"-workers", "1"}, nil} {
			cmd := exec.Command(os.Args[0], append(append([]string{}, run...), extra...)...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%q %q: %v", run, extra, err)
			}
			outs[i] = string(out)
		}
		for _, id := range strings.Split(run[1], ",") {
			if !strings.Contains(outs[0], "=== "+id+" ===") {
				t.Fatalf("%q: report lacks the %s header:\n%s", run, id, outs[0])
			}
		}
		if outs[0] != outs[1] {
			t.Errorf("%q: stdout differs between -workers 1 and the default:\n%s\nvs\n%s", run, outs[0], outs[1])
		}
	}
}

// TestCacheOpenedBeforeCompute: an unusable -cache directory exits
// with code 2 before the first experiment runs.
func TestCacheOpenedBeforeCompute(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	requireFailFast(t, "-cache", "-run", "all", "-samples", "2", "-cache", file)
}

// TestBadMechanismFailsFast: a -mechanisms spec that does not parse
// exits with code 2 before any experiment runs, including experiments
// that never read the filter.
func TestBadMechanismFailsFast(t *testing.T) {
	requireFailFast(t, "-mechanisms", "-run", "fig5", "-samples", "2", "-mechanisms", "rss+rts:8,bogus:9")
}

// TestUnknownRunFailsFast: an unknown -run id exits with code 2 before
// any experiment runs.
func TestUnknownRunFailsFast(t *testing.T) {
	requireFailFast(t, "-run fig99", "-run", "fig99")
}

// TestBadOptionsFailFast: a run option every experiment rejects exits
// with code 2, naming its flag, before any experiment runs — including
// experiments that never read it (table2) or override it (fig18's
// line count).
func TestBadOptionsFailFast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"one sample", []string{"-samples", "1"}, "-samples 1"},
		{"zero lines", []string{"-lines", "0"}, "-lines 0"},
		{"short key", []string{"-key", "short"}, "-key"},
		{"negative workers", []string{"-workers", "-1"}, "-workers -1"},
		{"zero lines fig18", []string{"-run", "fig18", "-lines", "0"}, "-lines 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireFailFast(t, tc.wantErr, append([]string{"-run", "table2,fig7"}, tc.args...)...)
		})
	}
}

// mismatchedJournalDir returns a journal directory holding a fig7
// journal written under another seed than the command-line default.
func mismatchedJournalDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	o := experiments.DefaultOptions()
	o.Seed = 1
	j, err := experiments.OpenJournal(filepath.Join(dir, "fig7.journal"), "fig7", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestResumeMismatchFailsFast: with -run all, a -resume journal from
// another configuration exits with code 2, naming the journal, before
// the experiments ahead of it compute.
func TestResumeMismatchFailsFast(t *testing.T) {
	dir := mismatchedJournalDir(t)
	requireFailFast(t, "-journal "+filepath.Join(dir, "fig7.journal"),
		"-run", "all", "-samples", "4", "-journal", dir, "-resume")
}

// TestServeFailFast: in serve mode, a bad flag combination, output
// path, -cache directory, -mechanisms spec, run option, -run id or
// -resume journal exits with code 2 before the coordinator serves or leases anything.
func TestServeFailFast(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	stale := mismatchedJournalDir(t)
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"csv missing", []string{"-journal", dir, "-csv", missing}, "-csv"},
		{"trace parent missing", []string{"-journal", dir, "-trace-out", filepath.Join(missing, "t.json")}, "-trace-out"},
		{"flight parent is a file", []string{"-journal", dir, "-flight-out", filepath.Join(file, "f.json")}, "-flight-out"},
		{"cache is a file", []string{"-journal", dir, "-cache", file}, "-cache"},
		{"bad mechanism", []string{"-journal", dir, "-mechanisms", "bogus:9"}, "-mechanisms"},
		{"one sample", []string{"-journal", dir, "-samples", "1"}, "-samples 1"},
		{"journal missing", nil, "-serve requires -journal"},
		{"worker too", []string{"-journal", dir, "-worker", "http://127.0.0.1:1"}, "-serve and -worker"},
		{"metrics addr", []string{"-journal", dir, "-metrics-addr", "127.0.0.1:0"}, "-metrics-addr"},
		{"unknown run", []string{"-journal", dir, "-run", "fig99"}, "-run fig99"},
		{"resume mismatch", []string{"-journal", stale, "-resume"}, "-journal " + filepath.Join(stale, "fig7.journal")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireFailFast(t, tc.wantErr, append([]string{"-serve", "127.0.0.1:0", "-run", "fig7"}, tc.args...)...)
		})
	}
}

// TestModeFlagsFailFast: a flag set explicitly in a mode that ignores
// it exits with code 2, naming the flag, before any compute, serving or
// polling; so does an unusable worker -cache directory. Defaults never
// trip the check (every other test runs with them).
func TestModeFlagsFailFast(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	local := []string{"-run", "table2"}
	serve := []string{"-serve", "127.0.0.1:0", "-journal", dir, "-run", "fig7"}
	worker := []string{"-worker", "http://127.0.0.1:1"}
	for _, tc := range []struct {
		name    string
		mode    []string
		args    []string
		wantErr string
	}{
		{"lease timeout local", local, []string{"-lease-timeout", "1s"}, "-lease-timeout is only for -serve"},
		{"drain wait local", local, []string{"-drain-wait", "0s"}, "-drain-wait is only for -serve"},
		{"lease timeout worker", worker, []string{"-lease-timeout", "1s"}, "-lease-timeout is only for -serve"},
		{"worker id local", local, []string{"-worker-id", "w1"}, "-worker-id is only for -worker"},
		{"chaos seed serve", serve, []string{"-chaos-seed", "7"}, "-chaos-seed is only for -worker"},
		{"request timeout local", local, []string{"-request-timeout", "1s"}, "-request-timeout is only for -worker"},
		{"run worker", worker, []string{"-run", "fig7"}, "-run does not apply to -worker"},
		{"csv worker", worker, []string{"-csv", dir}, "-csv does not apply to -worker"},
		{"journal worker", worker, []string{"-journal", dir}, "-journal does not apply to -worker"},
		{"resume worker", worker, []string{"-resume"}, "-resume does not apply to -worker"},
		{"trace out worker", worker, []string{"-trace-out", filepath.Join(dir, "t.json")}, "-trace-out does not apply to -worker"},
		{"list worker", worker, []string{"-list"}, "-list does not apply to -worker"},
		{"samples worker", worker, []string{"-samples", "5"}, "-samples does not apply to -worker"},
		{"lines worker", worker, []string{"-lines", "8"}, "-lines does not apply to -worker"},
		{"seed worker", worker, []string{"-seed", "7"}, "-seed does not apply to -worker"},
		{"key worker", worker, []string{"-key", "RCoal eval key 2"}, "-key does not apply to -worker"},
		{"heartbeat worker", worker, []string{"-heartbeat", "1s"}, "-heartbeat does not apply to -worker"},
		{"mechanisms worker", worker, []string{"-mechanisms", "baseline"}, "-mechanisms does not apply to -worker"},
		{"worker cache is a file", worker, []string{"-cache", file}, "-cache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireFailFast(t, tc.wantErr, append(append([]string{}, tc.mode...), tc.args...)...)
		})
	}
}
