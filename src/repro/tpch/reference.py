"""Straight-Python reference implementations of the executable TPC-H
queries.

The paper's authors "inspected the query results to ensure they were as
expected according to the SQL semantics" (§6); these functions mechanise
that inspection: each implements one query directly over Python dicts,
with no shared code with the compiler, and the tests assert that the
compiled pipeline (interpreted *and* code-generated) produces the same
rows.

Row order is significant where the query has ORDER BY; aggregates are
floats compared with a tolerance by the callers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping

from repro.data.foreign import DateValue
from repro.data.model import Bag, to_python


def _rows(db: Mapping[str, Bag], table: str) -> List[dict]:
    return [dict(to_python(row)) for row in db[table]]


def _date(text: str) -> DateValue:
    return DateValue.parse(text)


def _like(pattern: str, text: str) -> bool:
    from repro.data.operators import OpLike

    return OpLike(pattern).apply(text)


def _group(rows: List[dict], key: Callable[[dict], tuple]) -> "OrderedDict":
    groups: "OrderedDict" = OrderedDict()
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


def q1(db: Mapping[str, Bag]) -> List[dict]:
    cutoff = _date("1998-12-01").minus_days(90)
    rows = [r for r in _rows(db, "lineitem") if r["l_shipdate"] <= cutoff]
    out = []
    for (flag, status), group in sorted(
        _group(rows, lambda r: (r["l_returnflag"], r["l_linestatus"])).items()
    ):
        disc_price = [r["l_extendedprice"] * (1 - r["l_discount"]) for r in group]
        charge = [
            r["l_extendedprice"] * (1 - r["l_discount"]) * (1 + r["l_tax"])
            for r in group
        ]
        out.append(
            {
                "l_returnflag": flag,
                "l_linestatus": status,
                "sum_qty": sum(r["l_quantity"] for r in group),
                "sum_base_price": sum(r["l_extendedprice"] for r in group),
                "sum_disc_price": sum(disc_price),
                "sum_charge": sum(charge),
                "avg_qty": sum(r["l_quantity"] for r in group) / len(group),
                "avg_price": sum(r["l_extendedprice"] for r in group) / len(group),
                "avg_disc": sum(r["l_discount"] for r in group) / len(group),
                "count_order": len(group),
            }
        )
    return out


def q3(db: Mapping[str, Bag]) -> List[dict]:
    pivot = _date("1995-03-15")
    customers = {
        c["c_custkey"]: c
        for c in _rows(db, "customer")
        if c["c_mktsegment"] == "BUILDING"
    }
    orders = {
        o["o_orderkey"]: o
        for o in _rows(db, "orders")
        if o["o_custkey"] in customers and o["o_orderdate"] < pivot
    }
    joined = [
        (l, orders[l["l_orderkey"]])
        for l in _rows(db, "lineitem")
        if l["l_orderkey"] in orders and l["l_shipdate"] > pivot
    ]
    out = []
    groups = _group(
        [dict(l, **{"__o": o}) for l, o in joined],
        lambda r: (r["l_orderkey"], r["__o"]["o_orderdate"], r["__o"]["o_shippriority"]),
    )
    for (orderkey, orderdate, priority), group in groups.items():
        out.append(
            {
                "l_orderkey": orderkey,
                "revenue": sum(
                    r["l_extendedprice"] * (1 - r["l_discount"]) for r in group
                ),
                "o_orderdate": orderdate,
                "o_shippriority": priority,
            }
        )
    out.sort(key=lambda r: (-r["revenue"], r["o_orderdate"]))
    return out[:10]


def q4(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1993-07-01")
    end = start.plus_months(3)
    committed = {
        l["l_orderkey"]
        for l in _rows(db, "lineitem")
        if l["l_commitdate"] < l["l_receiptdate"]
    }
    rows = [
        o
        for o in _rows(db, "orders")
        if start <= o["o_orderdate"] < end and o["o_orderkey"] in committed
    ]
    out = [
        {"o_orderpriority": priority, "order_count": len(group)}
        for priority, group in sorted(
            _group(rows, lambda r: r["o_orderpriority"]).items()
        )
    ]
    return out


def q5(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1994-01-01")
    end = start.plus_years(1)
    asia_regions = {
        r["r_regionkey"] for r in _rows(db, "region") if r["r_name"] == "ASIA"
    }
    asia_nations = {
        n["n_nationkey"]: n["n_name"]
        for n in _rows(db, "nation")
        if n["n_regionkey"] in asia_regions
    }
    customers = {
        c["c_custkey"]: c["c_nationkey"]
        for c in _rows(db, "customer")
        if c["c_nationkey"] in asia_nations
    }
    orders = {
        o["o_orderkey"]: customers[o["o_custkey"]]
        for o in _rows(db, "orders")
        if o["o_custkey"] in customers and start <= o["o_orderdate"] < end
    }
    suppliers = {
        s["s_suppkey"]: s["s_nationkey"]
        for s in _rows(db, "supplier")
        if s["s_nationkey"] in asia_nations
    }
    revenue: Dict[str, float] = {}
    for l in _rows(db, "lineitem"):
        if l["l_orderkey"] not in orders or l["l_suppkey"] not in suppliers:
            continue
        # c_nationkey = s_nationkey: customer and supplier in same nation
        if orders[l["l_orderkey"]] != suppliers[l["l_suppkey"]]:
            continue
        nation = asia_nations[suppliers[l["l_suppkey"]]]
        revenue[nation] = revenue.get(nation, 0.0) + l["l_extendedprice"] * (
            1 - l["l_discount"]
        )
    out = [{"n_name": nation, "revenue": value} for nation, value in revenue.items()]
    out.sort(key=lambda r: -r["revenue"])
    return out


def q6(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1994-01-01")
    end = start.plus_years(1)
    total = sum(
        l["l_extendedprice"] * l["l_discount"]
        for l in _rows(db, "lineitem")
        if start <= l["l_shipdate"] < end
        and 0.05 <= l["l_discount"] <= 0.07
        and l["l_quantity"] < 24
    )
    return [{"revenue": total}]


def q7(db: Mapping[str, Bag]) -> List[dict]:
    lo, hi = _date("1995-01-01"), _date("1996-12-31")
    nations = {n["n_nationkey"]: n["n_name"] for n in _rows(db, "nation")}
    suppliers = {s["s_suppkey"]: nations[s["s_nationkey"]] for s in _rows(db, "supplier")}
    customers = {c["c_custkey"]: nations[c["c_nationkey"]] for c in _rows(db, "customer")}
    orders = {o["o_orderkey"]: customers[o["o_custkey"]] for o in _rows(db, "orders")}
    groups: Dict[tuple, float] = {}
    for l in _rows(db, "lineitem"):
        if not (lo <= l["l_shipdate"] <= hi):
            continue
        supp_nation = suppliers.get(l["l_suppkey"])
        cust_nation = orders.get(l["l_orderkey"])
        pair_ok = (supp_nation == "FRANCE" and cust_nation == "GERMANY") or (
            supp_nation == "GERMANY" and cust_nation == "FRANCE"
        )
        if not pair_ok:
            continue
        key = (supp_nation, cust_nation, l["l_shipdate"].year)
        groups[key] = groups.get(key, 0.0) + l["l_extendedprice"] * (1 - l["l_discount"])
    out = [
        {"supp_nation": s, "cust_nation": c, "l_year": y, "revenue": v}
        for (s, c, y), v in groups.items()
    ]
    out.sort(key=lambda r: (r["supp_nation"], r["cust_nation"], r["l_year"]))
    return out


def q8(db: Mapping[str, Bag]) -> List[dict]:
    lo, hi = _date("1995-01-01"), _date("1996-12-31")
    america = {
        r["r_regionkey"] for r in _rows(db, "region") if r["r_name"] == "AMERICA"
    }
    nations = {n["n_nationkey"]: n for n in _rows(db, "nation")}
    parts = {
        p["p_partkey"]
        for p in _rows(db, "part")
        if p["p_type"] == "ECONOMY ANODIZED STEEL"
    }
    customers = {
        c["c_custkey"]
        for c in _rows(db, "customer")
        if nations[c["c_nationkey"]]["n_regionkey"] in america
    }
    orders = {
        o["o_orderkey"]: o
        for o in _rows(db, "orders")
        if o["o_custkey"] in customers and lo <= o["o_orderdate"] <= hi
    }
    suppliers = {
        s["s_suppkey"]: nations[s["s_nationkey"]]["n_name"]
        for s in _rows(db, "supplier")
    }
    volumes: Dict[int, List[tuple]] = {}
    for l in _rows(db, "lineitem"):
        if l["l_partkey"] not in parts or l["l_orderkey"] not in orders:
            continue
        year = orders[l["l_orderkey"]]["o_orderdate"].year
        volume = l["l_extendedprice"] * (1 - l["l_discount"])
        volumes.setdefault(year, []).append((suppliers[l["l_suppkey"]], volume))
    out = []
    for year in sorted(volumes):
        entries = volumes[year]
        total = sum(v for _, v in entries)
        brazil = sum(v for nation, v in entries if nation == "BRAZIL")
        out.append({"o_year": year, "mkt_share": brazil / total})
    return out


def q9(db: Mapping[str, Bag]) -> List[dict]:
    nations = {n["n_nationkey"]: n["n_name"] for n in _rows(db, "nation")}
    suppliers = {s["s_suppkey"]: nations[s["s_nationkey"]] for s in _rows(db, "supplier")}
    parts = {p["p_partkey"] for p in _rows(db, "part") if "green" in p["p_name"]}
    supply_cost = {
        (ps["ps_partkey"], ps["ps_suppkey"]): ps["ps_supplycost"]
        for ps in _rows(db, "partsupp")
    }
    orders = {o["o_orderkey"]: o["o_orderdate"].year for o in _rows(db, "orders")}
    groups: Dict[tuple, float] = {}
    for l in _rows(db, "lineitem"):
        key = (l["l_partkey"], l["l_suppkey"])
        if l["l_partkey"] not in parts or key not in supply_cost:
            continue
        amount = l["l_extendedprice"] * (1 - l["l_discount"]) - supply_cost[key] * l[
            "l_quantity"
        ]
        group = (suppliers[l["l_suppkey"]], orders[l["l_orderkey"]])
        groups[group] = groups.get(group, 0.0) + amount
    out = [
        {"nation": nation, "o_year": year, "sum_profit": profit}
        for (nation, year), profit in groups.items()
    ]
    out.sort(key=lambda r: (r["nation"], -r["o_year"]))
    return out


def q10(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1993-10-01")
    end = start.plus_months(3)
    nations = {n["n_nationkey"]: n["n_name"] for n in _rows(db, "nation")}
    customers = {c["c_custkey"]: c for c in _rows(db, "customer")}
    orders = {
        o["o_orderkey"]: o["o_custkey"]
        for o in _rows(db, "orders")
        if start <= o["o_orderdate"] < end
    }
    revenue: Dict[int, float] = {}
    for l in _rows(db, "lineitem"):
        if l["l_returnflag"] != "R" or l["l_orderkey"] not in orders:
            continue
        custkey = orders[l["l_orderkey"]]
        revenue[custkey] = revenue.get(custkey, 0.0) + l["l_extendedprice"] * (
            1 - l["l_discount"]
        )
    out = []
    for custkey, value in revenue.items():
        c = customers[custkey]
        out.append(
            {
                "c_custkey": custkey,
                "c_name": c["c_name"],
                "revenue": value,
                "c_acctbal": c["c_acctbal"],
                "n_name": nations[c["c_nationkey"]],
                "c_address": c["c_address"],
                "c_phone": c["c_phone"],
                "c_comment": c["c_comment"],
            }
        )
    out.sort(key=lambda r: -r["revenue"])
    return out[:20]


def q20(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1994-01-01")
    end = start.plus_years(1)
    forest_parts = {
        p["p_partkey"] for p in _rows(db, "part") if p["p_name"].startswith("forest")
    }
    shipped: Dict[tuple, int] = {}
    for l in _rows(db, "lineitem"):
        if start <= l["l_shipdate"] < end:
            key = (l["l_partkey"], l["l_suppkey"])
            shipped[key] = shipped.get(key, 0) + l["l_quantity"]
    eligible_suppliers = set()
    for ps in _rows(db, "partsupp"):
        if ps["ps_partkey"] not in forest_parts:
            continue
        key = (ps["ps_partkey"], ps["ps_suppkey"])
        # our model has no NULLs: an empty subquery sum is 0
        threshold = 0.5 * shipped.get(key, 0)
        if ps["ps_availqty"] > threshold:
            eligible_suppliers.add(ps["ps_suppkey"])
    canada = {
        n["n_nationkey"] for n in _rows(db, "nation") if n["n_name"] == "CANADA"
    }
    out = [
        {"s_name": s["s_name"], "s_address": s["s_address"]}
        for s in _rows(db, "supplier")
        if s["s_suppkey"] in eligible_suppliers and s["s_nationkey"] in canada
    ]
    out.sort(key=lambda r: r["s_name"])
    return out


def q21(db: Mapping[str, Bag]) -> List[dict]:
    saudi = {
        n["n_nationkey"] for n in _rows(db, "nation") if n["n_name"] == "SAUDI ARABIA"
    }
    suppliers = {
        s["s_suppkey"]: s["s_name"]
        for s in _rows(db, "supplier")
        if s["s_nationkey"] in saudi
    }
    orders = {
        o["o_orderkey"] for o in _rows(db, "orders") if o["o_orderstatus"] == "F"
    }
    lines = _rows(db, "lineitem")
    by_order: Dict[int, List[dict]] = {}
    for l in lines:
        by_order.setdefault(l["l_orderkey"], []).append(l)
    counts: Dict[str, int] = {}
    for l1 in lines:
        if l1["l_suppkey"] not in suppliers or l1["l_orderkey"] not in orders:
            continue
        if not (l1["l_receiptdate"] > l1["l_commitdate"]):
            continue
        siblings = by_order[l1["l_orderkey"]]
        other_supplier = any(l2["l_suppkey"] != l1["l_suppkey"] for l2 in siblings)
        other_late = any(
            l3["l_suppkey"] != l1["l_suppkey"]
            and l3["l_receiptdate"] > l3["l_commitdate"]
            for l3 in siblings
        )
        if other_supplier and not other_late:
            name = suppliers[l1["l_suppkey"]]
            counts[name] = counts.get(name, 0) + 1
    out = [{"s_name": name, "numwait": count} for name, count in counts.items()]
    out.sort(key=lambda r: (-r["numwait"], r["s_name"]))
    return out[:100]


def _q11_rows(db: Mapping[str, Bag]) -> List[dict]:
    nations = {
        n["n_nationkey"] for n in _rows(db, "nation") if n["n_name"] == "GERMANY"
    }
    suppliers = {
        s["s_suppkey"] for s in _rows(db, "supplier") if s["s_nationkey"] in nations
    }
    return [ps for ps in _rows(db, "partsupp") if ps["ps_suppkey"] in suppliers]


def q11(db: Mapping[str, Bag]) -> List[dict]:
    rows = _q11_rows(db)
    threshold = sum(r["ps_supplycost"] * r["ps_availqty"] for r in rows) * 0.0001
    out = []
    for partkey, group in _group(rows, lambda r: r["ps_partkey"]).items():
        value = sum(r["ps_supplycost"] * r["ps_availqty"] for r in group)
        if value > threshold:
            out.append({"ps_partkey": partkey, "value": value})
    out.sort(key=lambda r: -r["value"])
    return out


def q12(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1994-01-01")
    end = start.plus_years(1)
    orders = {o["o_orderkey"]: o for o in _rows(db, "orders")}
    rows = [
        dict(l, **{"__o": orders[l["l_orderkey"]]})
        for l in _rows(db, "lineitem")
        if l["l_shipmode"] in ("MAIL", "SHIP")
        and l["l_commitdate"] < l["l_receiptdate"]
        and l["l_shipdate"] < l["l_commitdate"]
        and start <= l["l_receiptdate"] < end
        and l["l_orderkey"] in orders
    ]
    out = []
    for mode, group in sorted(_group(rows, lambda r: r["l_shipmode"]).items()):
        high = sum(
            1
            for r in group
            if r["__o"]["o_orderpriority"] in ("1-URGENT", "2-HIGH")
        )
        out.append(
            {
                "l_shipmode": mode,
                "high_line_count": high,
                "low_line_count": len(group) - high,
            }
        )
    return out


def q14(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1995-09-01")
    end = start.plus_months(1)
    parts = {p["p_partkey"]: p for p in _rows(db, "part")}
    rows = [
        (l, parts[l["l_partkey"]])
        for l in _rows(db, "lineitem")
        if start <= l["l_shipdate"] < end and l["l_partkey"] in parts
    ]
    promo = sum(
        l["l_extendedprice"] * (1 - l["l_discount"])
        for l, p in rows
        if p["p_type"].startswith("PROMO")
    )
    total = sum(l["l_extendedprice"] * (1 - l["l_discount"]) for l, p in rows)
    return [{"promo_revenue": 100.0 * promo / total}]


def q15(db: Mapping[str, Bag]) -> List[dict]:
    start = _date("1996-01-01")
    end = start.plus_months(3)
    rows = [
        l
        for l in _rows(db, "lineitem")
        if start <= l["l_shipdate"] < end
    ]
    revenue = {
        suppkey: sum(r["l_extendedprice"] * (1 - r["l_discount"]) for r in group)
        for suppkey, group in _group(rows, lambda r: r["l_suppkey"]).items()
    }
    if not revenue:
        return []
    best = max(revenue.values())
    out = [
        {
            "s_suppkey": s["s_suppkey"],
            "s_name": s["s_name"],
            "s_address": s["s_address"],
            "s_phone": s["s_phone"],
            "total_revenue": revenue[s["s_suppkey"]],
        }
        for s in _rows(db, "supplier")
        if s["s_suppkey"] in revenue and revenue[s["s_suppkey"]] == best
    ]
    out.sort(key=lambda r: r["s_suppkey"])
    return out


def q16(db: Mapping[str, Bag]) -> List[dict]:
    complainers = {
        s["s_suppkey"]
        for s in _rows(db, "supplier")
        if _like("%Customer%Complaints%", s["s_comment"])
    }
    parts = {
        p["p_partkey"]: p
        for p in _rows(db, "part")
        if p["p_brand"] != "Brand#45"
        and not _like("MEDIUM POLISHED%", p["p_type"])
        and p["p_size"] in (49, 14, 23, 45, 19, 3, 36, 9)
    }
    rows = [
        dict(ps, **{"__p": parts[ps["ps_partkey"]]})
        for ps in _rows(db, "partsupp")
        if ps["ps_partkey"] in parts and ps["ps_suppkey"] not in complainers
    ]
    out = []
    groups = _group(
        rows,
        lambda r: (r["__p"]["p_brand"], r["__p"]["p_type"], r["__p"]["p_size"]),
    )
    for (brand, type_name, size), group in groups.items():
        out.append(
            {
                "p_brand": brand,
                "p_type": type_name,
                "p_size": size,
                "supplier_cnt": len({r["ps_suppkey"] for r in group}),
            }
        )
    out.sort(key=lambda r: (-r["supplier_cnt"], r["p_brand"], r["p_type"], r["p_size"]))
    return out


def q17(db: Mapping[str, Bag]) -> List[dict]:
    parts = {
        p["p_partkey"]
        for p in _rows(db, "part")
        if p["p_brand"] == "Brand#23" and p["p_container"] == "MED BOX"
    }
    lines = _rows(db, "lineitem")
    by_part: Dict[int, List[dict]] = {}
    for l in lines:
        by_part.setdefault(l["l_partkey"], []).append(l)
    total = 0.0
    for l in lines:
        if l["l_partkey"] not in parts:
            continue
        same_part = by_part[l["l_partkey"]]
        threshold = 0.2 * (sum(x["l_quantity"] for x in same_part) / len(same_part))
        if l["l_quantity"] < threshold:
            total += l["l_extendedprice"]
    return [{"avg_yearly": total / 7.0}]


def q18(db: Mapping[str, Bag]) -> List[dict]:
    lines = _rows(db, "lineitem")
    qty_by_order: Dict[int, int] = {}
    for l in lines:
        qty_by_order[l["l_orderkey"]] = qty_by_order.get(l["l_orderkey"], 0) + l["l_quantity"]
    big = {key for key, qty in qty_by_order.items() if qty > 300}
    customers = {c["c_custkey"]: c for c in _rows(db, "customer")}
    orders = [
        o
        for o in _rows(db, "orders")
        if o["o_orderkey"] in big and o["o_custkey"] in customers
    ]
    out = []
    for o in orders:
        c = customers[o["o_custkey"]]
        out.append(
            {
                "c_name": c["c_name"],
                "c_custkey": c["c_custkey"],
                "o_orderkey": o["o_orderkey"],
                "o_orderdate": o["o_orderdate"],
                "o_totalprice": o["o_totalprice"],
                "total_qty": qty_by_order[o["o_orderkey"]],
            }
        )
    out.sort(key=lambda r: (-r["o_totalprice"], r["o_orderdate"]))
    return out[:100]


def q19(db: Mapping[str, Bag]) -> List[dict]:
    parts = {p["p_partkey"]: p for p in _rows(db, "part")}

    def matches(l: dict, p: dict) -> bool:
        if l["l_shipmode"] not in ("AIR", "REG AIR"):
            return False
        if l["l_shipinstruct"] != "DELIVER IN PERSON":
            return False
        branches = (
            ("Brand#12", ("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5),
            ("Brand#23", ("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10),
            ("Brand#34", ("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15),
        )
        for brand, containers, qlo, qhi, max_size in branches:
            if (
                p["p_brand"] == brand
                and p["p_container"] in containers
                and qlo <= l["l_quantity"] <= qhi
                and 1 <= p["p_size"] <= max_size
            ):
                return True
        return False

    total = sum(
        l["l_extendedprice"] * (1 - l["l_discount"])
        for l in _rows(db, "lineitem")
        if l["l_partkey"] in parts and matches(l, parts[l["l_partkey"]])
    )
    return [{"revenue": total}]


def q22(db: Mapping[str, Bag]) -> List[dict]:
    codes = ("13", "31", "23", "29", "30", "18", "17")
    customers = _rows(db, "customer")
    eligible = [
        c for c in customers if c["c_phone"][:2] in codes and c["c_acctbal"] > 0.0
    ]
    if eligible:
        avg_bal = sum(c["c_acctbal"] for c in eligible) / len(eligible)
    else:
        avg_bal = 0.0
    with_orders = {o["o_custkey"] for o in _rows(db, "orders")}
    rows = [
        {"cntrycode": c["c_phone"][:2], "c_acctbal": c["c_acctbal"]}
        for c in customers
        if c["c_phone"][:2] in codes
        and c["c_acctbal"] > avg_bal
        and c["c_custkey"] not in with_orders
    ]
    out = []
    for code, group in sorted(_group(rows, lambda r: r["cntrycode"]).items()):
        out.append(
            {
                "cntrycode": code,
                "numcust": len(group),
                "totacctbal": sum(r["c_acctbal"] for r in group),
            }
        )
    return out


#: Reference implementation per executable query name.
REFERENCES: Dict[str, Callable[[Mapping[str, Bag]], List[dict]]] = {
    "q1": q1,
    "q3": q3,
    "q4": q4,
    "q5": q5,
    "q6": q6,
    "q7": q7,
    "q8": q8,
    "q9": q9,
    "q10": q10,
    "q11": q11,
    "q12": q12,
    "q14": q14,
    "q15": q15,
    "q16": q16,
    "q17": q17,
    "q18": q18,
    "q19": q19,
    "q20": q20,
    "q21": q21,
    "q22": q22,
}
# q2's correlated min-subquery needs SQL NULL semantics when the inner
# match set is empty (paper footnote 2 excludes NULLs; so do we).
