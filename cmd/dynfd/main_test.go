package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const peopleCSV = `firstname,lastname,zip,city
Max,Jones,14482,Potsdam
Max,Miller,14482,Potsdam
Max,Jones,10115,Berlin
Anna,Scott,13591,Berlin
`

const paperChanges = `{"op":"delete","id":2}
{"op":"insert","values":["Marie","Scott","14467","Potsdam"]}
{"op":"insert","values":["Marie","Gray","14469","Potsdam"]}
`

func TestRunWithInitialCSV(t *testing.T) {
	t.Parallel()
	csv := writeFile(t, "people.csv", peopleCSV)
	changes := writeFile(t, "changes.jsonl", paperChanges)
	var out bytes.Buffer
	if err := run(changes, csv, "", 100, false, false, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"bootstrap: 4 rows, 5 minimal FDs",
		"- [lastname] -> firstname",
		"+ [firstname] -> city",
		"final: 5 rows, 6 minimal FDs",
		"stats:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunQuietMode(t *testing.T) {
	t.Parallel()
	csv := writeFile(t, "people.csv", peopleCSV)
	changes := writeFile(t, "changes.jsonl", paperChanges)
	var out bytes.Buffer
	if err := run(changes, csv, "", 1, true, false, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "(batch") {
		t.Errorf("quiet mode printed per-batch changes:\n%s", s)
	}
	if !strings.Contains(s, "final: 5 rows, 6 minimal FDs") {
		t.Errorf("final summary missing:\n%s", s)
	}
}

func TestRunColumnsOnly(t *testing.T) {
	t.Parallel()
	changes := writeFile(t, "c.jsonl", `{"op":"insert","values":["a","b"]}`+"\n")
	var out bytes.Buffer
	if err := run(changes, "", "x,y", 10, false, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "final: 1 rows") {
		t.Errorf("output: %s", out.String())
	}
}

func TestProfiledWritesProfiles(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	ran := false
	if err := profiled(cpu, mem, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("profiled did not run the wrapped function")
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestProfiledErrors(t *testing.T) {
	t.Parallel()
	// No profile paths: the wrapped error passes through unwrapped.
	wantErr := os.ErrClosed
	if err := profiled("", "", func() error { return wantErr }); err != wantErr {
		t.Errorf("got %v, want %v", err, wantErr)
	}
	// Unwritable profile paths fail up front / after the run.
	bad := filepath.Join(t.TempDir(), "missing-dir", "p.out")
	if err := profiled(bad, "", func() error { return nil }); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
	if err := profiled("", bad, func() error { return nil }); err == nil {
		t.Error("unwritable memprofile path accepted")
	}
	// A failing run must not clobber the error with a memprofile write.
	mem := filepath.Join(t.TempDir(), "mem.out")
	if err := profiled("", mem, func() error { return wantErr }); err != wantErr {
		t.Errorf("got %v, want %v", err, wantErr)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Error("memprofile written despite failed run")
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	changes := writeFile(t, "c.jsonl", "")
	var out bytes.Buffer
	if err := run(changes, "", "", 10, false, false, &out); err == nil {
		t.Error("missing schema accepted")
	}
	if err := run(changes, "", "a,b", 0, false, false, &out); err == nil {
		t.Error("batch size 0 accepted")
	}
	if err := run("/nonexistent.jsonl", "", "a,b", 10, false, false, &out); err == nil {
		t.Error("missing changes file accepted")
	}
	bad := writeFile(t, "bad.jsonl", `{"op":"delete","id":999}`+"\n")
	if err := run(bad, "", "a,b", 10, false, false, &out); err == nil {
		t.Error("dangling delete accepted")
	}
	badCSV := writeFile(t, "bad.csv", "a,a\n1,2\n")
	if err := run(changes, badCSV, "", 10, false, false, &out); err == nil {
		t.Error("duplicate-column CSV accepted")
	}
}

// TestLegacyWorkersFlag: command lines written for builds with a worker
// count keep working. -workers is parsed and ignored, so the output is
// byte-identical to a run without it.
func TestLegacyWorkersFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	t.Parallel()
	bin := filepath.Join(t.TempDir(), "dynfd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("cannot build dynfd: %v\n%s", err, out)
	}
	csv := writeFile(t, "people.csv", peopleCSV)
	changes := writeFile(t, "changes.jsonl", paperChanges)
	want, err := exec.Command(bin, "-initial", csv, changes).Output()
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(bin, "-workers", "0", "-initial", csv, changes).Output()
	if err != nil {
		t.Fatalf("-workers 0: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-workers 0 output differs:\n%s\nwant:\n%s", got, want)
	}
}
