package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
BenchmarkFig3OLAPOSON-8   	     100	  12000000 ns/op	 5000000 B/op	   34000 allocs/op
BenchmarkExpandRenamed-8  	     100	   1000000 ns/op	  100000 B/op	    2000 allocs/op
PASS
`

func parse(t *testing.T, out string) map[string]usage {
	t.Helper()
	got, err := parseBench(strings.NewReader(out), &strings.Builder{})
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	return got
}

func TestParseBenchStripsProcSuffix(t *testing.T) {
	got := parse(t, benchOutput)
	if want := (usage{allocs: 34000, bytes: 5000000}); got["BenchmarkFig3OLAPOSON"] != want {
		t.Errorf("BenchmarkFig3OLAPOSON = %+v, want %+v", got["BenchmarkFig3OLAPOSON"], want)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2", len(got))
	}
}

func TestCompareOKAndImproved(t *testing.T) {
	baseline := map[string]usage{
		"BenchmarkFig3OLAPOSON":  {allocs: 34000, bytes: 4800000},
		"BenchmarkExpandRenamed": {allocs: 34000, bytes: 100000},
	}
	var out, errw strings.Builder
	if compare(baseline, parse(t, benchOutput), "ALLOC_BASELINE.txt", &out, &errw) {
		t.Fatalf("gate failed on in-tolerance run:\n%s", errw.String())
	}
	for _, w := range []string{"BenchmarkFig3OLAPOSON ok: 34000 allocs/op", "BenchmarkFig3OLAPOSON ok: 5000000 B/op"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("missing ok verdict %q:\n%s", w, out.String())
		}
	}
	if !strings.Contains(out.String(), "ratcheting the baseline down") {
		t.Errorf("missing improvement hint for the 2000-alloc result:\n%s", out.String())
	}
}

func TestCompareRegression(t *testing.T) {
	baseline := map[string]usage{"BenchmarkFig3OLAPOSON": {allocs: 20000, bytes: 5000000}}
	var out, errw strings.Builder
	if !compare(baseline, parse(t, benchOutput), "ALLOC_BASELINE.txt", &out, &errw) {
		t.Fatal("34000 allocs against a 20000 baseline must fail")
	}
	if !strings.Contains(errw.String(), "regressed: 34000 allocs/op") {
		t.Errorf("missing regression message:\n%s", errw.String())
	}
}

// TestCompareBytesRegression: B/op is gated on its own — a run that
// keeps its allocation count but allocates far larger blocks fails.
func TestCompareBytesRegression(t *testing.T) {
	baseline := map[string]usage{"BenchmarkFig3OLAPOSON": {allocs: 34000, bytes: 1000000}}
	var out, errw strings.Builder
	if !compare(baseline, parse(t, benchOutput), "ALLOC_BASELINE.txt", &out, &errw) {
		t.Fatal("5000000 B/op against a 1000000 baseline must fail")
	}
	if !strings.Contains(errw.String(), "regressed: 5000000 B/op > 1100000") {
		t.Errorf("missing B/op regression message:\n%s", errw.String())
	}
	if strings.Contains(errw.String(), "allocs/op") {
		t.Errorf("in-baseline allocs/op reported as a regression:\n%s", errw.String())
	}
}

func TestCompareMissingBenchmarksListed(t *testing.T) {
	baseline := map[string]usage{
		"BenchmarkExpandOld":    {allocs: 2000, bytes: 100000}, // renamed in the output
		"BenchmarkFig3OLAPOSON": {allocs: 34000, bytes: 5000000},
		"BenchmarkGone":         {allocs: 10, bytes: 100},
	}
	var out, errw strings.Builder
	if !compare(baseline, parse(t, benchOutput), "base.txt", &out, &errw) {
		t.Fatal("missing benchmarks must fail the gate")
	}
	msg := errw.String()
	for _, w := range []string{
		"2 baseline benchmark(s) missing from the bench output",
		"allocguard:   BenchmarkExpandOld",
		"allocguard:   BenchmarkGone",
		"unmatched benchmark(s): BenchmarkExpandRenamed",
		"rename the entries in base.txt",
	} {
		if !strings.Contains(msg, w) {
			t.Errorf("missing %q in:\n%s", w, msg)
		}
	}
	// the listing must come out sorted, in one block
	if strings.Index(msg, "BenchmarkExpandOld") > strings.Index(msg, "BenchmarkGone") {
		t.Errorf("missing-benchmark listing not sorted:\n%s", msg)
	}
}
