-- Join corpus: cross-table numeric equi-joins (code-space probe in the
-- IMC configuration), string self-joins sharing one dictionary, outer
-- joins with probe misses, residuals, and joins feeding aggregation.

-- case: join_lookup_string
-- rows: 40
select l.lid, a.did from lk l join d a on l.vk = a.vs where a.did < 40 order by l.lid, a.did;

-- case: join_lookup_agg
-- rows: 23
select l.lid, count(*) from lk l join d a on l.vk = a.vs group by l.lid order by l.lid;

-- case: left_join_lookup_residual
-- rows: 32
select l.lid, a.did from lk l left join d a on l.vk = a.vs and a.did < 25 order by l.lid, a.did;

-- case: self_join_number
-- rows: 27
select a.did, b.did from d a join d b on a.vn = b.vn where a.did < 30 order by a.did, b.did;

-- case: self_join_string_bounded
-- rows: 8
select a.did, b.did from d a join d b on a.vs = b.vs and b.did < 8 where a.did < 8 order by a.did, b.did;

-- case: left_self_join_number
-- rows: 102
select a.did, b.did from d a left join d b on a.vn = b.vn and b.did < 100 where a.did < 120 order by a.did, b.did;

-- case: self_join_string_agg
-- rows: 23
select a.vs, count(*) from d a join d b on a.vs = b.vs and b.did < 23 group by a.vs order by a.vs;

-- case: join_number_cross_table
-- rows: 27
select a.did, l.lid from d a join lk l on a.vn = l.vw where a.did < 300 order by a.did, l.lid;

-- case: left_join_number_cross_table
-- rows: 30
select l.lid, a.did from lk l left join d a on l.vw = a.vn order by l.lid, a.did;

-- case: join_raw_path_key
-- rows: 40
select l.lid, a.did from lk l join d a on json_value(l.jdoc, '$.k') = a.vs where a.did < 40 order by l.lid, a.did;

-- case: join_then_sort_limit
-- rows: 17
select a.did, b.did from d a join d b on a.vn = b.vn where a.vn between 60 and 90 order by a.did desc limit 17;

-- case: join_residual_price
-- rows: 40
select a.did, b.did from d a join d b on a.vs = b.vs and b.vprice > 40 where a.did < 12 order by a.did, b.did limit 40;

-- Join-input pushdown: WHERE conjuncts over one input run inside that
-- input's access path. Row counts pinned from a planner without
-- pushdown.

-- case: pushdown_both_sides
-- rows: 119
select a.did, b.did from d a join d b on a.vs = b.vs where a.did < 30 and b.vn between 100 and 200 order by a.did, b.did;

-- case: pushdown_json_value_raw_path_key
-- rows: 70
select l.lid, a.did from lk l join d a on json_value(l.jdoc, '$.k') = a.vs where json_value(a.jdoc, '$.addr.zip' returning number) < 10005 order by l.lid, a.did;

-- case: pushdown_left_anti_join_stays_above
-- rows: 7
select l.lid from lk l left join d a on l.vk = a.vs where a.did is null order by l.lid;

-- case: pushdown_left_join_preserved_side
-- rows: 12
select l.lid, a.did from lk l left join d a on l.vw = a.vn where l.lid < 12 order by l.lid, a.did;

-- case: pushdown_left_join_preserved_and_null_side
-- rows: 1
select l.lid, a.did from lk l left join d a on l.vw = a.vn where l.lid between 5 and 25 and a.did is null order by l.lid, a.did;

-- case: pushdown_cross_side_conjunct_stays_above
-- rows: 15
select a.did, b.did from d a join d b on a.vg = b.vg where a.did < b.did and b.did < 15 order by a.did, b.did;

-- case: pushdown_unqualified_unique_columns
-- rows: 20
select lid, a.did from lk l join d a on l.vk = a.vs where lid < 4 and did < 100 order by lid, a.did;

-- case: pushdown_three_table_tree
-- rows: 48
select l.lid, a.did, b.did from lk l join d a on l.vk = a.vs join d b on a.vn = b.vn where l.lid < 5 and a.did < 300 and b.vprice > 10 order by l.lid, a.did, b.did;

-- case: pushdown_three_table_left_joins
-- rows: 2
select l.lid, a.did, b.lid from lk l left join d a on l.vw = a.vn left join lk b on a.vs = b.vk where l.lid < 15 and b.lid is null order by l.lid, a.did;

-- case: pushdown_filtered_code_space_probe
-- rows: 6
select a.did, b.did from d a join d b on a.vs = b.vs where a.did in (3, 4, 5, 40) and b.did in (1, 2, 3, 4, 5, 26, 27, 28, 29, 30) order by a.did, b.did;

-- case: pushdown_filtered_code_space_left_outer
-- rows: 5
select a.did, b.did from d a left join d b on a.vn = b.vn where a.did in (0, 5, 13, 26, 27) order by a.did, b.did;
