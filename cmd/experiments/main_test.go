package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iqb/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current output")

// TestRunAllMatchesGolden pins the full output of `experiments -run
// all`: every table and figure the paper and the extension experiments
// print. The experiments run fixed seeds, so the output is a function of
// the code alone; a change to any number fails here until the golden
// file is regenerated with -update and the diff reviewed.
func TestRunAllMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := experiments.Run(context.Background(), "all", &got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d (rerun with -update to accept):\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
