-- JSON_TABLE view corpus: column pruning (a query reads a subset of a
-- De-normalized Master-Detail view's columns, and expansion evaluates
-- only those) and fused prefilters (WHERE conjuncts over one NESTED
-- PATH clause become one path filter). Every case pins its row
-- contents by digest: pruning and prefilters act in every
-- configuration, the reference included.

-- case: view_subset_columns
-- rows: 60
-- digest: 8cc756e9960c035b
select did, part from dv where did < 30 order by did, part;

-- case: view_star
-- rows: 19
-- digest: 8af6455005228413
select * from dv where did < 10 order by did, q;

-- case: view_count_star
-- rows: 1
-- digest: 4507930ebb761ea2
select count(*) from dv;

-- case: view_count_detail_column
-- rows: 1
-- digest: bdae6305cc665364
select count(*), count(q), count(part) from dout;

-- case: view_order_by_unprojected
-- rows: 99
-- digest: e38c778fb4e4bcc9
select s from dv where did < 50 order by q desc, did, s;

-- case: view_window
-- rows: 79
-- digest: af1e59af70fb1df4
select did, part, q - lag(q, 1, q) over (order by did, part) from dv where did < 40 order by did, part;

-- case: view_group_by
-- rows: 5
-- digest: ac0ec52e7fc06517
select g, sum(q), count(*) from dv group by g order by g;

-- case: view_group_by_unprojected_key
-- rows: 5
-- digest: 11a361376cf7ffd8
select sum(q), count(*) from dv group by g order by 1, 2;

-- case: view_group_having
-- rows: 7
-- digest: 06b1e2a2510f36f4
select part, count(*) from dv group by part having sum(q) > 100 order by part;

-- case: view_varchar_over_number
-- rows: 6
-- digest: 542a7d6fe0e799b6
select did, zip from dv where zip = '10005' order by did, q;

-- case: view_join_lookup
-- rows: 99
-- digest: d07940443640ff8b
select a.did, a.part, l.vw from dv a join lk l on a.s = l.vk where a.did < 50 order by a.did, a.part;

-- case: sibling_union_all_columns
-- rows: 78
-- digest: 529fc9ef2a471ce2
select did, q, part from dsib where did < 20 order by did, q, part;

-- case: sibling_union_one_clause
-- rows: 78
-- digest: 5fb6f803701417a6
select did, part from dsib where did < 20 order by did, part;

-- case: sibling_count_star
-- rows: 1
-- digest: 151704a92001c30a
select count(*) from dsib;

-- case: outer_join_no_items
-- rows: 40
-- digest: a9f9256c669d52b5
select did, s, q from dout where did < 30 order by did, q;

-- case: derived_table_over_view
-- rows: 7
-- digest: 2ac81a6ecc5a7fc0
select x.part, count(*) from (select * from dv where q > 1) x group by x.part order by x.part;

-- case: derived_table_outer_reference
-- rows: 58
-- digest: b4953dc551334bdc
select x.s, x.did from (select did, s, part from dv) x where x.part = 'p3' and x.did < 200 order by x.did, x.s;

-- case: fused_same_clause
-- rows: 40
-- digest: 67fc299e944544d4
select did, q, part from dv where q > 1 and part = 'p3' order by did, q;

-- case: fused_row_pattern_clause
-- rows: 6
-- digest: f22fff4886498cdd
select did, s, q from dv where s = 's05' and g = 'grp0' order by did, q;

-- case: fused_both_clauses
-- rows: 16
-- digest: 9e1277ba1f1428fd
select did, q, part from dv where g = 'grp1' and q >= 2 and part in ('p1', 'p2') order by did, q;

-- case: sibling_conjuncts_not_fused
-- rows: 0
-- digest: 09612b07b5ecb5a5
select did from dsib where q = 2 and part = 'p3' order by did;

-- case: sibling_disjunction
-- rows: 122
-- digest: 815f355ec9bbe6af
select did, q, part from dsib where (q = 3 or part = 'p6') and did < 200 order by did, q, part;
