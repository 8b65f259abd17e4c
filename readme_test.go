package rcoal

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestReadmeCommands checks every `go run ./cmd/<bin> [subcommand]`
// line in the sh blocks of README.md and EXPERIMENTS.md against the
// binaries themselves: the command and subcommand must exist, and each
// flag the line passes must appear in `<bin> [subcommand] -h`.
func TestReadmeCommands(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	var cmds []docCommand
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		cmds = append(cmds, docCommands(t, doc)...)
	}
	if len(cmds) == 0 {
		t.Fatal("no go run ./cmd/... lines found in the docs")
	}

	// Build each binary the docs name once.
	binDir := t.TempDir()
	var pkgs []string
	built := map[string]bool{} // bin -> cmd/<bin> exists
	for _, c := range cmds {
		if _, seen := built[c.bin]; seen {
			continue
		}
		_, err := os.Stat(filepath.Join("cmd", c.bin, "main.go"))
		if built[c.bin] = err == nil; err != nil {
			t.Errorf("%s: no command cmd/%s", c.where, c.bin)
			continue
		}
		pkgs = append(pkgs, "./cmd/"+c.bin)
	}
	if len(pkgs) > 0 {
		if out, err := exec.Command(goTool, append([]string{"build", "-o", binDir}, pkgs...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
	}

	help := map[string]string{} // "bin sub" -> -h output
	for _, c := range cmds {
		if !built[c.bin] {
			continue
		}
		key := strings.TrimSpace(c.bin + " " + c.sub)
		h, ok := help[key]
		if !ok {
			args := []string{"-h"}
			if c.sub != "" {
				args = []string{c.sub, "-h"}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			out, err := exec.CommandContext(ctx, filepath.Join(binDir, c.bin), args...).CombinedOutput()
			cancel()
			if err != nil {
				t.Errorf("%s: %s -h: %v\n%s", c.where, key, err, out)
			}
			h = string(out)
			help[key] = h
		}
		for _, f := range c.flags {
			if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(f) + `(\s|$)`).MatchString(h) {
				t.Errorf("%s: %s has no flag -%s", c.where, key, f)
			}
		}
	}
}

// docCommand is one `go run ./cmd/<bin>` line of a document.
type docCommand struct {
	where string // file:line
	bin   string
	sub   string // subcommand, or ""
	flags []string
}

// docCommands returns the go run ./cmd/... lines of the sh blocks in
// doc, with backslash continuations joined.
func docCommands(t *testing.T, doc string) []docCommand {
	t.Helper()
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cmds []docCommand
	inSh, line, start, pending := false, 0, 0, ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case !inSh:
			inSh = strings.TrimSpace(text) == "```sh"
			continue
		case strings.HasPrefix(strings.TrimSpace(text), "```"):
			inSh, pending = false, ""
			continue
		}
		if pending == "" {
			start = line
		}
		if cont, ok := strings.CutSuffix(text, `\`); ok {
			pending += cont + " "
			continue
		}
		full := pending + text
		pending = ""
		if c, ok := parseGoRun(full); ok {
			c.where = doc + ":" + strconv.Itoa(start)
			cmds = append(cmds, c)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cmds
}

// parseGoRun parses a shell line of the form `go run ./cmd/<bin>
// [subcommand] [args]`: its comment and anything after a control
// operator or redirection are dropped.
func parseGoRun(line string) (docCommand, bool) {
	words := shellWords(line)
	if len(words) < 3 || words[0] != "go" || words[1] != "run" || !strings.HasPrefix(words[2], "./cmd/") {
		return docCommand{}, false
	}
	c := docCommand{bin: strings.TrimPrefix(words[2], "./cmd/")}
	args := words[3:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		c.sub, args = args[0], args[1:]
	}
	for _, a := range args {
		if len(a) > 1 && a[0] == '-' {
			name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
			c.flags = append(c.flags, name)
		}
	}
	return c, true
}

// shellWords splits a shell line into words, honouring single and
// double quotes, and stops at a comment, a control operator or a
// redirection.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord, quote := false, byte(0)
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case quote != 0:
			if ch == quote {
				quote = 0
			} else {
				cur.WriteByte(ch)
			}
		case ch == '\'' || ch == '"':
			quote, inWord = ch, true
		case ch == ' ' || ch == '\t':
			if inWord {
				words, inWord = append(words, cur.String()), false
				cur.Reset()
			}
		case !inWord && ch == '#', strings.IndexByte("&|;<>", ch) >= 0:
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteByte(ch)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}
