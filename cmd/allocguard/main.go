// Command allocguard is the allocation-regression gate wired into
// `make bench-smoke`: it reads `go test -bench -benchmem` output on
// stdin, extracts allocs/op and B/op for each benchmark named in the
// committed baseline file, and exits 1 when either exceeds its
// baseline by more than the tolerance (10%). Both are gated because
// they regress independently: one oversized allocation per query (a
// 256 KB row-arena slab on the point-query path) moves B/op thirtyfold
// while allocs/op barely moves.
//
// Usage:
//
//	go test -run '^$' -bench Fig3OLAPOSON -benchmem . | allocguard -baseline ALLOC_BASELINE.txt
//
// The baseline file holds one entry per line — `BenchmarkName allocs
// bytes` — with #-comments and blank lines ignored. Every listed benchmark
// must appear in the input; missing ones fail the gate with a single
// consolidated listing, alongside any unmatched benchmarks the output
// did carry (the usual culprits after a rename — the baseline should
// be renamed too, not silently dropped). Improvements beyond the
// baseline print a hint to ratchet the committed number down.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tolerance is how far above baseline allocs/op and B/op may drift
// before the gate fails: benchmarks allocate near-deterministically,
// so 10% absorbs pool warmup and core-count variance while catching
// any real regression.
const tolerance = 1.10

// benchLine matches one -benchmem result line, capturing the
// benchmark name (with any -N GOMAXPROCS suffix stripped) and its B/op
// and allocs/op figures.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+.*?(\d+)\s+B/op\s+(\d+)\s+allocs/op`)

// usage is one benchmark's per-op allocation figures.
type usage struct {
	allocs, bytes int64
}

func main() {
	baselinePath := flag.String("baseline", "ALLOC_BASELINE.txt", "committed allocs/op baseline file")
	flag.Parse()

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocguard:", err)
		os.Exit(2)
	}

	got, err := parseBench(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocguard:", err)
		os.Exit(2)
	}

	if failed := compare(baseline, got, *baselinePath, os.Stdout, os.Stderr); failed {
		os.Exit(1)
	}
}

// parseBench extracts allocs/op and B/op per benchmark from go test
// -benchmem output, echoing every line to echo for the build log.
func parseBench(r io.Reader, echo io.Writer) (map[string]usage, error) {
	got := map[string]usage{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		bytes, err1 := strconv.ParseInt(m[2], 10, 64)
		allocs, err2 := strconv.ParseInt(m[3], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		got[m[1]] = usage{allocs: allocs, bytes: bytes}
	}
	return got, sc.Err()
}

// compare checks every baseline entry's allocs/op and B/op against the
// measured ones, writing verdicts to out and failures to errw; it
// reports whether the gate fails. Output is sorted by benchmark name so failures read
// the same run to run, and every missing benchmark is listed in one
// block together with the unmatched names the output did carry.
func compare(baseline, got map[string]usage, baselinePath string, out, errw io.Writer) bool {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	var missing []string
	for _, name := range names {
		u, ok := got[name]
		if !ok {
			missing = append(missing, name)
			failed = true
			continue
		}
		base := baseline[name]
		if gate(name, "allocs/op", u.allocs, base.allocs, out, errw) {
			failed = true
		}
		if gate(name, "B/op", u.bytes, base.bytes, out, errw) {
			failed = true
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(errw, "allocguard: %d baseline benchmark(s) missing from the bench output:\n", len(missing))
		for _, name := range missing {
			fmt.Fprintf(errw, "allocguard:   %s\n", name)
		}
		if extra := unmatched(baseline, got); len(extra) > 0 {
			fmt.Fprintf(errw, "allocguard: the output did carry unmatched benchmark(s): %s\n", strings.Join(extra, ", "))
		}
		fmt.Fprintf(errw, "allocguard: rename the entries in %s if the benchmarks were renamed, or widen the -bench pattern if they no longer run\n", baselinePath)
	}
	return failed
}

// gate checks one measured figure against its baseline, writing the
// verdict to out or errw; it reports whether the figure regressed.
func gate(name, unit string, n, base int64, out, errw io.Writer) bool {
	limit := int64(float64(base) * tolerance)
	switch {
	case n > limit:
		fmt.Fprintf(errw, "allocguard: %s regressed: %d %s > %d (baseline %d +10%%)\n", name, n, unit, limit, base)
		return true
	case float64(n) < float64(base)/tolerance:
		fmt.Fprintf(out, "allocguard: %s improved to %d %s (baseline %d) — consider ratcheting the baseline down\n", name, n, unit, base)
	default:
		fmt.Fprintf(out, "allocguard: %s ok: %d %s (baseline %d, limit %d)\n", name, n, unit, base, limit)
	}
	return false
}

// unmatched lists, sorted, the benchmarks measured in the output that
// no baseline entry names — the rename candidates.
func unmatched(baseline, got map[string]usage) []string {
	var extra []string
	for name := range got {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}

// readBaseline parses the committed baseline file: `name allocs bytes`
// per line, #-comments and blanks skipped.
func readBaseline(path string) (map[string]usage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]usage{}
	sc := bufio.NewScanner(f)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want `BenchmarkName allocs bytes`, got %q", path, ln, line)
		}
		allocs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad allocs count %q", path, ln, fields[1])
		}
		bytes, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad bytes count %q", path, ln, fields[2])
		}
		out[fields[0]] = usage{allocs: allocs, bytes: bytes}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no baseline entries", path)
	}
	return out, nil
}
