package cminus_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite golden files")

// punctSrc runs every punctuator through the lexer, including runs where
// a longer operator must win over its prefix and runs that only look like
// one.
const punctSrc = `<<= >>= ... ++ -- += -= *= /= %= &= |= ^= == != <= >= && || << >> ->
+ - * / % = < > ! & | ^ ~ ( ) [ ] { } ; , ? : .
<<<= >>>= .... +++ --- -> -->= &&& ||| !== === <=> a->b x+++y .5 1.e3 'a' '\n' "s\"t"`

// pinSources returns every input the Tokenize pin covers, labelled:
// the shipped benchmark files, the corpus programs, the FuzzParse seeds
// (inline and stored), the punctuator run and an unexpected character.
func pinSources(t *testing.T) (labels, srcs []string) {
	t.Helper()
	add := func(label, src string) {
		labels = append(labels, label)
		srcs = append(srcs, src)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmark sources: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("testdata/"+filepath.Base(f), string(b))
	}
	for _, b := range corpus.Extended() {
		add("corpus/"+b.Name, b.Source)
	}
	for i, s := range cminus.ParseSeeds {
		add(fmt.Sprintf("seed/%d", i), s)
	}
	stored, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stored {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// The go fuzz corpus format: a version line, then string("...").
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: unexpected fuzz corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add("stored/"+filepath.Base(f), s)
	}
	add("punct", punctSrc)
	add("punct-error", "x = y\n  @ z;")
	return labels, srcs
}

// dumpTokens renders every token's kind, position and text, or the
// lexer's error.
func dumpTokens(src string) string {
	toks, err := cminus.Tokenize(src)
	if err != nil {
		return "error " + strconv.Quote(err.Error()) + "\n"
	}
	var sb strings.Builder
	for _, tk := range toks {
		fmt.Fprintf(&sb, "%d %s %q\n", tk.Kind, tk.Pos, tk.Text)
	}
	return sb.String()
}

// TestTokenizePinned pins the token stream — kind, text and position of
// every token — of every shipped source, so a change to the lexer that
// moves one token fails here. The golden file holds each stream's token
// count and SHA-256; -update rewrites it.
func TestTokenizePinned(t *testing.T) {
	labels, srcs := pinSources(t)
	var got bytes.Buffer
	for i, src := range srcs {
		dump := dumpTokens(src)
		fmt.Fprintf(&got, "%s %d %x\n", labels[i], strings.Count(dump, "\n"), sha256.Sum256([]byte(dump)))
	}
	path := filepath.Join("testdata", "tokens.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	pinned := map[string]bool{}
	for _, line := range strings.Split(string(want), "\n") {
		pinned[line] = true
	}
	for _, line := range strings.Split(got.String(), "\n") {
		if !pinned[line] {
			t.Errorf("token stream differs: %s", line)
		}
	}
	t.Errorf("token pins differ from %s (run go test -update if the change is intended)", path)
}
