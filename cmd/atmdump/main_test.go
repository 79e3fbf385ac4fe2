package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// writeSeidel simulates a small seidel run into a trace file at path
// (gzip-compressed when path ends in ".gz").
func writeSeidel(t *testing.T, path string) {
	t.Helper()
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := trace.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openstream.Run(p, openstream.DefaultConfig(topology.Small(2, 2)), fw.Writer); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// parseSummary reads the record total and per-kind counts from the
// statistics atmdump prints after the records.
func parseSummary(t *testing.T, path, out string) (int, map[string]int) {
	t.Helper()
	head := "\n" + path + ": "
	i := strings.LastIndex(out, head)
	if i < 0 {
		t.Fatalf("no summary for %s in output:\n%s", path, out)
	}
	lines := strings.Split(strings.TrimSpace(out[i+len(head):]), "\n")
	var total int
	if _, err := fmt.Sscanf(lines[0], "%d records", &total); err != nil {
		t.Fatalf("summary header %q: %v", lines[0], err)
	}
	counts := map[string]int{}
	for _, l := range lines[1:] {
		var kind string
		var n int
		if _, err := fmt.Sscan(l, &kind, &n); err != nil {
			t.Fatalf("summary line %q: %v", l, err)
		}
		counts[kind] = n
	}
	return total, counts
}

// TestDumpCounts: the per-kind counts atmdump prints for a raw and a
// gzip-compressed trace match the records ReadBatched decodes from the
// raw file, and -n stops after exactly N records.
func TestDumpCounts(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "seidel.atm")
	gz := filepath.Join(dir, "seidel.atm.gz")
	writeSeidel(t, raw)
	writeSeidel(t, gz)

	f, err := os.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	total := 0
	if err := trace.ReadBatched(f, 4, func(b *trace.RecordBatch) error {
		for _, k := range batchKinds(b) {
			if k.n > 0 {
				counts[k.name] += k.n
				total += k.n
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total < 100 || counts["state"] == 0 || counts["topology"] != 1 {
		t.Fatalf("simulated trace too small to test: %d records, %v", total, counts)
	}

	for _, path := range []string{raw, gz} {
		var out bytes.Buffer
		if err := run(&out, path, false, 0); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		gotTotal, gotCounts := parseSummary(t, path, out.String())
		if gotTotal != total || !reflect.DeepEqual(gotCounts, counts) {
			t.Errorf("%s: atmdump counts %d %v, ReadBatched %d %v", path, gotTotal, gotCounts, total, counts)
		}
	}

	const limit = 17
	var out bytes.Buffer
	if err := run(&out, gz, true, limit); err != nil {
		t.Fatal(err)
	}
	records, _, _ := strings.Cut(out.String(), "\n\n")
	if n := len(strings.Split(records, "\n")); n != limit {
		t.Errorf("-v -n %d printed %d record lines:\n%s", limit, n, out.String())
	}
	gotTotal, gotCounts := parseSummary(t, gz, out.String())
	sum := 0
	for _, n := range gotCounts {
		sum += n
	}
	if gotTotal != limit || sum != limit {
		t.Errorf("-n %d: summary reports %d records, kinds sum to %d", limit, gotTotal, sum)
	}
}

// TestDumpRejectsNonTrace: a file that is not a trace fails with the
// decoder's bad-magic error.
func TestDumpRejectsNonTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, path, false, 0); err != trace.ErrBadMagic {
		t.Fatalf("run = %v, want ErrBadMagic", err)
	}
}
