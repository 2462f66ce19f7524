package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// layerMetric is one per-layer metric of BENCHMARK.json; moves names
// the end-to-end metric and workload it should move (and where it
// should stay flat), printed beside the value by the traced run.
type layerMetric struct{ name, unit, better, moves string }

// opKinds are the plan operators the four workloads' EXPLAIN ANALYZE
// trees contain.
var opKinds = []string{"Alias", "Filter", "GroupAgg", "HashJoin", "JSONTable", "ParallelScan",
	"Project", "Sort", "TableScan", "Window"}

// stmtShapes are the per-query-shape latency metrics: Q1-Q9 on po-olap,
// Q1-Q11 on the NOBENCH workloads, put/get/find/count on doc-crud.
var stmtShapes = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11",
	"put", "get", "find", "count"}

const (
	movesOLAP     = "latency_p50_ms on po-olap; 0 elsewhere"
	movesOLAPIMC  = "latency_p50_ms on po-olap and nobench-imc"
	movesIMC      = "latency_p50_ms on nobench-imc; 0 on nobench-text and doc-crud"
	movesText     = "latency_p50_ms on nobench-text; near 0 on nobench-imc"
	movesCRUDRead = "read_p50_us (doc-crud detail) and latency_p50_ms on doc-crud"
	movesCRUDPut  = "write_p50_us (doc-crud detail) and latency_p95_ms on doc-crud"
	movesSetup    = "setup_s"
)

var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"sqlengine.parse_hard_per_op", "count", "lower", movesCRUDRead + "; flat on po-olap"},
		{"sqlengine.plancache_hit_ratio", "ratio", "higher", movesCRUDRead + "; flat on po-olap"},
		{"sqlengine.parse_us", "us", "lower", movesCRUDRead + "; latency_p50_ms on nobench-imc (Q5-Q7 are short)"},
		{"sqlengine.prepare_us", "us", "lower", movesCRUDRead + "; latency_p50_ms on nobench-imc (Q5-Q7 are short)"},
		{"sqlengine.execute_us", "us", "lower", movesCRUDRead + "; alloc_bytes_per_op on doc-crud"},
		{"sqlengine.rows_examined_per_row_returned", "ratio", "lower", "latency_p50_ms on nobench-imc and doc-crud"},
		{"sqlengine.rows_per_batch", "count", "higher", movesOLAP},
		{"sqlengine.adapted_row_share", "ratio", "lower", movesOLAP},
		{"sqlengine.parexec_workers_per_op", "count", "lower", movesOLAPIMC + "; 0 on doc-crud"},
		{"sqlengine.parexec_serial_fallback_share", "ratio", "lower", movesOLAPIMC + "; 0 on doc-crud"},
		{"sqlengine.parexec_merge_stalls_per_op", "count", "lower", movesOLAPIMC + "; 0 on doc-crud"},
		{"sqlengine.parallel_scan_fanout_per_op", "count", "lower", movesOLAPIMC + "; 0 on doc-crud"},
		{"sqlengine.parallel_scan_merge_stalls_per_op", "count", "lower", movesOLAPIMC + "; 0 on doc-crud"},
	}
	for _, k := range opKinds {
		ms = append(ms,
			layerMetric{"sqlengine.op." + k + ".self_ms", "ms", "lower", "latency_p50_ms on the query workloads (EXPLAIN ANALYZE, row cursor)"},
			layerMetric{"sqlengine.op." + k + ".rows", "count", "lower", "latency_p50_ms on the query workloads (EXPLAIN ANALYZE)"})
	}
	for _, s := range stmtShapes {
		ms = append(ms, layerMetric{"sqlengine.stmt." + s + ".p50_ms", "ms", "lower", "points to the query shape that moved latency_p50_ms"})
	}
	return append(ms, []layerMetric{
		{"sqljson.docs_per_op", "count", "lower", movesOLAP + "; alloc_bytes_per_op on po-olap"},
		{"sqljson.rows_per_doc", "ratio", "lower", movesOLAP},
		{"sqljson.docs_pruned_share", "ratio", "higher", movesOLAP},
		{"sqljson.arena_hit_ratio", "ratio", "higher", "alloc_bytes_per_op on po-olap; 0 elsewhere"},
		{"sqljson.intern_hit_ratio", "ratio", "higher", "alloc_bytes_per_op on po-olap; 0 elsewhere"},
		{"sqljson.expand_us_per_doc", "us", "lower", movesOLAP},
		{"oson.decode_docs_per_op", "count", "lower", movesOLAPIMC + "; 0 on nobench-text"},
		{"oson.decode_bytes_per_op", "B", "lower", movesOLAPIMC + "; 0 on nobench-text"},
		{"oson.lookback_hit_ratio", "ratio", "higher", movesOLAPIMC},
		{"oson.encode_us_per_doc", "us", "lower", movesSetup + " on po-olap and nobench-imc"},
		{"oson.bytes_per_doc", "B", "lower", "stored_bytes_per_json_byte on po-olap and nobench-imc"},
		{"jsontext.parse_us_per_kb", "us", "lower", "read_p50_us (Get) on doc-crud; " + movesText},
		{"jsontext.valid_us_per_kb", "us", "lower", movesCRUDPut},
		{"pathengine.eval_text_us_per_doc", "us", "lower", movesText},
		{"pathengine.eval_oson_us_per_doc", "us", "lower", movesOLAPIMC},
		{"imc.populate_oson_s", "s", "lower", movesSetup + " on nobench-imc"},
		{"imc.populate_vc_s", "s", "lower", movesSetup + " on nobench-imc"},
		{"imc.memory_bytes", "B", "lower", "stored_bytes_per_json_byte and heap_inuse_mb on nobench-imc"},
		{"imc.chunks_pruned_share", "ratio", "higher", movesIMC},
		{"imc.rows_selected_per_op", "count", "lower", movesIMC},
		{"imc.dictprobe_rows_per_op", "count", "lower", movesIMC},
		{"store.insert_us", "us", "lower", movesSetup},
		{"store.redo_bytes_per_json_byte", "ratio", "lower", movesCRUDPut + "; stored_bytes_per_json_byte"},
		{"store.storage_bytes_per_doc", "B", "lower", "stored_bytes_per_json_byte"},
		{"searchindex.docs_indexed_per_put", "count", "lower", movesCRUDPut},
		{"searchindex.keyword_lookup_us", "us", "lower", movesCRUDRead},
		{"searchindex.path_lookup_us", "us", "lower", movesCRUDRead},
		{"dataguide.update_p50_ns", "ns", "lower", movesCRUDPut},
		{"dataguide.paths_added_per_put", "count", "lower", movesCRUDPut},
		{"dataguide.distinct_paths", "count", "lower", movesCRUDPut},
		{"core.put_us", "us", "lower", movesCRUDPut},
		{"core.get_us", "us", "lower", movesCRUDRead},
		{"runtime.gc_cycles_per_kop", "count", "lower", "latency_p95_ms everywhere"},
		{"runtime.gc_pause_share", "ratio", "lower", "latency_p95_ms everywhere"},
		{"bench.trace_overhead_share", "ratio", "lower", "none: traced versus untraced ops_per_s"},
	}...)
}()

// probeBudget caps the probe replay after the traced phase.
const (
	probeBudget = 2 * time.Second
	probeMaxOps = 4000
)

// layerMetrics derives every per-layer metric from the traced phase:
// counter deltas, spans, probes replayed over the phase's ops, and one
// EXPLAIN ANALYZE per query shape. Metrics a workload does not reach
// read 0.
func layerMetrics(w runner, tr *tracer, ph *phaseStats, setup counters, setupReps int, l *loop) map[string]float64 {
	m := map[string]float64{}
	c := ph.counters
	ops := float64(ph.ops)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var rowsOut float64
	// the rows returned by the phase's ops: re-run is not needed, the
	// ops recorded their answers' sizes
	for _, o := range l.traced {
		rowsOut += float64(o.rowsOut)
	}
	puts := float64(len(ph.lat["put"]))

	m["sqlengine.parse_hard_per_op"] = ratio(c.get("sql.parse.hard"), ops)
	m["sqlengine.plancache_hit_ratio"] = ratio(c.get("sql.plancache.hits"), c.get("sql.plancache.hits")+c.get("sql.plancache.misses"))
	m["sqlengine.execute_us"] = tr.meanMicros("sqlengine.execute")
	m["sqlengine.rows_examined_per_row_returned"] = ratio(c.get("sql.scan.rows"), rowsOut)
	m["sqlengine.rows_per_batch"] = ratio(c.get("sql.batch.rows"), c.get("sql.batch.batches"))
	m["sqlengine.adapted_row_share"] = ratio(c.get("sql.batch.adapted_rows"), c.get("sql.batch.rows")+c.get("sql.batch.adapted_rows"))
	m["sqlengine.parexec_workers_per_op"] = ratio(c.get("sql.parexec.workers"), ops)
	m["sqlengine.parexec_serial_fallback_share"] = ratio(c.get("sql.parexec.serial_fallbacks"), c.get("sql.parexec.ops")+c.get("sql.parexec.serial_fallbacks"))
	m["sqlengine.parexec_merge_stalls_per_op"] = ratio(c.get("sql.parexec.merge_stalls"), ops)
	m["sqlengine.parallel_scan_fanout_per_op"] = ratio(c.get("sql.scan.parallel.fanout"), ops)
	m["sqlengine.parallel_scan_merge_stalls_per_op"] = ratio(c.get("sql.scan.parallel.merge_stalls"), ops)
	for _, s := range stmtShapes {
		if ds := ph.lat[s]; len(ds) > 0 {
			m["sqlengine.stmt."+s+".p50_ms"] = ms(percentile(ds, 0.5))
		}
	}

	docs := c.get("sql.jsontable.docs")
	m["sqljson.docs_per_op"] = ratio(docs, ops)
	m["sqljson.rows_per_doc"] = ratio(c.get("sql.jsontable.rows"), docs)
	m["sqljson.docs_pruned_share"] = ratio(c.get("sql.jsontable.docs_pruned"), docs)

	m["oson.decode_docs_per_op"] = ratio(c.get("oson.decode.docs"), ops)
	m["oson.decode_bytes_per_op"] = ratio(c.get("oson.decode.bytes"), ops)
	m["oson.lookback_hit_ratio"] = ratio(c.get("oson.fieldref.lookback_hits"),
		c.get("oson.fieldref.lookback_hits")+c.get("oson.fieldref.lookback_misses"))
	encDocs := setup.get("oson.encode.docs")
	m["oson.bytes_per_doc"] = ratio(setup.get("oson.encode.bytes"), encDocs)
	encSpans := tr.total("oson.encode") + tr.total("imc.populate_oson")
	m["oson.encode_us_per_doc"] = ratio(float64(encSpans.Nanoseconds())/1e3, encDocs)

	m["imc.populate_oson_s"] = tr.meanMicros("imc.populate_oson") / 1e6
	m["imc.populate_vc_s"] = tr.total("imc.populate_vc").Seconds() / float64(setupReps)
	m["imc.chunks_pruned_share"] = ratio(c.get("imc.scan.chunks_pruned"), c.get("imc.scan.chunks"))
	m["imc.rows_selected_per_op"] = ratio(c.get("imc.scan.rows_selected"), ops)
	m["imc.dictprobe_rows_per_op"] = ratio(c.get("imc.dictprobe.rows"), ops)

	m["store.insert_us"] = tr.meanMicros("store.insert")
	m["searchindex.docs_indexed_per_put"] = ratio(c.get("searchindex.docs_indexed"), puts)
	m["dataguide.paths_added_per_put"] = ratio(c.get("dataguide.paths_added"), puts)
	m["dataguide.update_p50_ns"] = histP50(c.dgBuckets)
	m["core.put_us"] = tr.meanMicros("core.put")
	m["core.get_us"] = tr.meanMicros("core.get")

	m["runtime.gc_cycles_per_kop"] = ratio(float64(ph.gcCycles)*1000, ops)
	m["runtime.gc_pause_share"] = ratio(float64(ph.gcPause), float64(ph.wall))

	// probes run after the counter snapshot, replaying the phase's ops
	r := rand.New(rand.NewSource(int64(len(l.traced))))
	start := time.Now()
	for i, o := range l.traced {
		if i >= probeMaxOps || time.Since(start) > probeBudget {
			break
		}
		w.probe(o, tr, r)
	}
	m["sqlengine.parse_us"] = tr.meanMicros("sqlengine.parse")
	m["sqlengine.prepare_us"] = tr.meanMicros("sqlengine.prepare")
	m["sqljson.expand_us_per_doc"] = tr.meanMicros("sqljson.expand")
	m["jsontext.parse_us_per_kb"] = tr.microsPerKB("jsontext.parse")
	m["jsontext.valid_us_per_kb"] = tr.microsPerKB("jsontext.valid")
	m["pathengine.eval_text_us_per_doc"] = tr.meanMicros("pathengine.eval_text")
	m["pathengine.eval_oson_us_per_doc"] = tr.meanMicros("pathengine.eval_oson")
	m["searchindex.keyword_lookup_us"] = tr.meanMicros("searchindex.keyword_lookup")
	m["searchindex.path_lookup_us"] = tr.meanMicros("searchindex.path_lookup")

	w.gauges(m)
	printAttribution(m, tr, ph)
	explainAnalyze(w, tr, m)
	return m
}

// histP50 is the upper bound of the bucket holding the median of a
// histogram delta.
func histP50(b map[int64]int64) float64 {
	var total int64
	les := make([]int64, 0, len(b))
	for le, n := range b {
		if n > 0 {
			total += n
			les = append(les, le)
		}
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	var cum int64
	for _, le := range les {
		cum += b[le]
		if 2*cum >= total {
			return float64(le)
		}
	}
	return 0
}

// explainAnalyze runs EXPLAIN ANALYZE once per query shape and sums
// each operator kind's self time (its time minus its children's) and
// output rows over the shapes. EXPLAIN ANALYZE drains through the row
// cursor, so this attributes time between operators; it is not the
// batch path's time.
func explainAnalyze(w runner, tr *tracer, m map[string]float64) {
	eng := w.engine()
	for _, s := range w.shapes() {
		sp := tr.begin("sqlengine.explain_analyze", 0, 0, true)
		res, err := eng.Exec("explain analyze "+s.sql, s.params...)
		tr.end(sp)
		if err != nil {
			fmt.Printf("explain %s: %v\n", s.shape, err)
			continue
		}
		lines := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			lines[i] = fmt.Sprint(row[0])
		}
		for kind, st := range operatorSelf(lines) {
			m["sqlengine.op."+kind+".self_ms"] += st.self
			m["sqlengine.op."+kind+".rows"] += st.rows
		}
	}
}

type opSelf struct{ self, rows float64 }

// operatorSelf parses an EXPLAIN ANALYZE tree (two spaces of indent per
// level, "(rows=N batches=M time=D)" on timed lines) into per-kind self
// milliseconds and rows.
func operatorSelf(lines []string) map[string]opSelf {
	type node struct {
		kind     string
		depth    int
		ms, rows float64
		childMS  float64
		timed    bool
	}
	var nodes []*node
	var stack []*node
	for _, line := range lines {
		trimmed := strings.TrimLeft(line, " ")
		depth := (len(line) - len(trimmed)) / 2
		i := strings.IndexAny(trimmed, "( ")
		if i <= 0 || !strings.Contains(trimmed, "(est-rows=") {
			continue // annotation lines (expand:, vec-batch:, plan cache:)
		}
		n := &node{kind: trimmed[:i], depth: depth}
		if a := strings.LastIndex(trimmed, "(rows="); a >= 0 {
			for _, f := range strings.Fields(strings.Trim(trimmed[a:], "()")) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "rows":
					n.rows, _ = strconv.ParseFloat(v, 64)
				case "time":
					if d, err := time.ParseDuration(v); err == nil {
						n.ms, n.timed = ms(d), true
					}
				}
			}
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].childMS += n.ms
		}
		stack = append(stack, n)
		nodes = append(nodes, n)
	}
	out := map[string]opSelf{}
	for _, n := range nodes {
		st := out[n.kind]
		if n.timed {
			st.self += max(n.ms-n.childMS, 0)
		}
		st.rows += n.rows
		out[n.kind] = st
	}
	return out
}

// printSelfTimes prints the span table: per span name its count,
// total and self time, and for spans inside ops their self time as a
// share of all op time.
func printSelfTimes(tr *tracer) {
	stats := tr.selfTimes()
	var opTotal time.Duration
	for _, s := range stats {
		if strings.HasPrefix(s.Name, "op.") {
			opTotal += s.Total
		}
	}
	for _, s := range stats {
		kind, share := "op", ""
		switch {
		case s.Probe:
			kind = "probe"
		case s.Setup:
			kind = "setup"
		case opTotal > 0:
			share = fmt.Sprintf(" self_share_of_ops=%.4f", float64(s.Self)/float64(opTotal))
		}
		fmt.Printf("span %-28s %-5s n=%-7d total_ms=%.3f self_ms=%.3f%s\n",
			s.Name, kind, s.Count, ms(s.Total), ms(s.Self), share)
	}
}

// printAttribution estimates how much of an op's time each probed layer
// accounts for: the probe's mean time multiplied by how often the op
// reaches the layer (from the engine's counters or the op mix), over
// the mean op time. Probes replay one unit of work in isolation, so
// these are estimates for ranking layers, not a decomposition; a
// probe that pays set-up the engine amortizes (a fresh OSON tree per
// call, say) can estimate more than the whole op.
func printAttribution(m map[string]float64, tr *tracer, ph *phaseStats) {
	ops := float64(ph.ops)
	meanOpUS := float64(ph.busy.Nanoseconds()) / 1e3 / ops
	c := ph.counters
	perOp := func(shape string) float64 { return float64(len(ph.lat[shape])) / ops }
	est := []struct {
		layer string
		us    float64
	}{
		{"sqlengine (hard parse + plan)", m["sqlengine.parse_hard_per_op"] * m["sqlengine.prepare_us"]},
		{"sqljson (expansion)", (c.get("sql.jsontable.docs") - c.get("sql.jsontable.docs_pruned")) / ops * m["sqljson.expand_us_per_doc"]},
		{"pathengine (OSON eval)", m["oson.decode_docs_per_op"] * m["pathengine.eval_oson_us_per_doc"]},
		{"pathengine (text eval)", c.get("sql.scan.rows") / ops * m["pathengine.eval_text_us_per_doc"]},
		{"jsontext (Get parse)", perOp("get") * tr.meanMicros("jsontext.parse")},
		{"jsontext (Put IS JSON)", perOp("put") * tr.meanMicros("jsontext.valid")},
		{"searchindex (lookups)", perOp("find")*m["searchindex.keyword_lookup_us"] + perOp("count")*m["searchindex.path_lookup_us"]},
	}
	for _, e := range est {
		fmt.Printf("attribution %-30s est_us_per_op=%.4g share_of_op_time=%.4f\n", e.layer, e.us, e.us/meanOpUS)
	}
}
