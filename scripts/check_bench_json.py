#!/usr/bin/env python3
"""Validate BENCH_*.json perf records produced by bench binaries.

Usage: check_bench_json.py FILE [FILE...]

Every file must be a non-empty JSON array of records. Each record
needs a non-empty string "name" and at least one finite, positive
rate/latency field ("ns_per_iter", "tokens_per_s", or — for the
STREAM calibration records — "mem_bw_bytes_per_s"). Records from
the serving_load harness (name starts with "serving_load/")
additionally carry the full latency/SLO metric set and the config
echoes that make a perf trajectory interpretable (including the
numeric "gemm_backend" and "simd_isa" codes). STREAM records (name
starts with "stream/") must carry a finite positive
"mem_bw_bytes_per_s"; any record's optional "mem_bw_bytes_per_s" /
"roofline_frac" pair must be positive-finite and consistent.

Exits nonzero with a per-file message on the first malformed file, so
CI's bench/load smoke steps fail loudly instead of uploading garbage
artifacts. No third-party dependencies: stdlib json only.
"""

import json
import math
import sys

SERVING_LOAD_KEYS = (
    "requests",
    "seed",
    "rate_per_s",
    "max_batch",
    "max_queue",
    "slo_ttft_ms",
    "slo_itl_ms",
    "ttft_ms_p50",
    "ttft_ms_p95",
    "ttft_ms_p99",
    "itl_ms_p50",
    "itl_ms_p95",
    "itl_ms_p99",
    "shed_rate",
    "evict_rate",
    "deadline_miss_rate",
    "kv_budget_mb",
    "kv_block_tokens",
    "prefill_chunk_tokens",
    "fault_every",
    "deadline_ms",
    "prefill_tokens",
    "decode_tokens",
    "queue_ms_p50",
    "queue_depth_mean",
    "queue_depth_max",
    "goodput_tok_per_s",
    "ms_per_step_mean",
    "sim_prefill_tokens",
    "sim_decode_tokens",
    "sim_queue_ms_p50",
    "sim_ttft_ms_p50",
    "sim_itl_ms_p50",
    "sim_shed_rate",
    "sim_evict_rate",
    "sim_deadline_miss_rate",
    "sim_tokens_per_s",
    "sim_goodput_tok_per_s",
    "sim_ms_per_step_mean",
    "gemm_backend",
    "simd_isa",
)


def is_finite_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_record(index, record):
    """Return a list of problems with one record (empty = OK)."""
    problems = []
    if not isinstance(record, dict):
        return ["record %d is not an object" % index]
    name = record.get("name")
    if not isinstance(name, str) or not name:
        problems.append("record %d has no non-empty name" % index)
        name = "<record %d>" % index

    ns = record.get("ns_per_iter")
    tok = record.get("tokens_per_s")
    bw = record.get("mem_bw_bytes_per_s")
    has_rate = (
        (is_finite_number(ns) and ns > 0)
        or (is_finite_number(tok) and tok > 0)
        or (is_finite_number(bw) and bw > 0)
    )
    if not has_rate:
        problems.append(
            "%s: needs a finite positive ns_per_iter, tokens_per_s,"
            " or mem_bw_bytes_per_s" % name
        )

    for key, value in record.items():
        if key == "name":
            continue
        if not is_finite_number(value):
            problems.append(
                "%s: field %r is not a finite number: %r"
                % (name, key, value)
            )

    if name.startswith("serving_load/"):
        for key in SERVING_LOAD_KEYS:
            if not is_finite_number(record.get(key)):
                problems.append(
                    "%s: missing serving_load metric %r" % (name, key)
                )

    if name.startswith("serving_load/longdoc-"):
        # Long-document prefill sanity: every request computes a long
        # prompt before its first token, so median TTFT must strictly
        # exceed both the pre-compute queue wait and the per-token
        # decode latency — in the measured run and the simulated
        # replay alike. Flat TTFT here means prefill went synthetic
        # (free) again.
        for prefix in ("", "sim_"):
            ttft = record.get(prefix + "ttft_ms_p50")
            itl = record.get(prefix + "itl_ms_p50")
            queue = record.get(prefix + "queue_ms_p50")
            prefill = record.get(prefix + "prefill_tokens")
            if not (is_finite_number(prefill) and prefill > 0):
                problems.append(
                    "%s: longdoc record prefilled no tokens (%s)"
                    % (name, prefix + "prefill_tokens")
                )
            if (
                is_finite_number(ttft)
                and is_finite_number(itl)
                and not ttft > itl
            ):
                problems.append(
                    "%s: %sttft_ms_p50 %r not above %sitl_ms_p50 %r"
                    % (name, prefix, ttft, prefix, itl)
                )
            if (
                is_finite_number(ttft)
                and is_finite_number(queue)
                and not ttft > queue
            ):
                problems.append(
                    "%s: %sttft_ms_p50 %r not above %squeue_ms_p50 %r"
                    % (name, prefix, ttft, prefix, queue)
                )

    if name.startswith("stream/") and not (
        is_finite_number(bw) and bw > 0
    ):
        problems.append(
            "%s: stream record needs a finite positive"
            " mem_bw_bytes_per_s" % name
        )

    # The roofline pair travels together: a fraction without a
    # measured ceiling (or vice versa on records that report LUT read
    # rates) is a harness bug, and both must be positive. The fraction
    # must also agree with lut_reads_per_s * 12 bytes / ceiling when
    # the read rate is present.
    frac = record.get("roofline_frac")
    if frac is not None or (bw is not None and not name.startswith("stream/")):
        if not (is_finite_number(bw) and bw > 0):
            problems.append(
                "%s: roofline_frac needs a positive"
                " mem_bw_bytes_per_s" % name
            )
        if not (is_finite_number(frac) and frac > 0):
            problems.append(
                "%s: mem_bw_bytes_per_s needs a positive"
                " roofline_frac" % name
            )
        reads = record.get("lut_reads_per_s")
        if (
            is_finite_number(frac)
            and is_finite_number(bw)
            and bw > 0
            and is_finite_number(reads)
            and reads > 0
        ):
            # 1e-4 relative: every operand was independently rounded
            # to the writer's 6 significant digits.
            expected = reads * 12.0 / bw
            if abs(frac - expected) > 1e-4 * max(1.0, abs(expected)):
                problems.append(
                    "%s: roofline_frac %r inconsistent with"
                    " lut_reads_per_s * 12 / mem_bw_bytes_per_s (%r)"
                    % (name, frac, expected)
                )
    return problems


def check_file(path):
    """Return a list of problems with one file (empty = OK)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        return ["cannot read: %s" % err]
    except json.JSONDecodeError as err:
        return ["malformed JSON: %s" % err]
    if not isinstance(data, list):
        return ["top level is not a JSON array"]
    if not data:
        return ["record array is empty"]

    problems = []
    names = set()
    for index, record in enumerate(data):
        problems.extend(check_record(index, record))
        if isinstance(record, dict):
            name = record.get("name")
            if isinstance(name, str):
                if name in names:
                    problems.append("duplicate record name %r" % name)
                names.add(name)
    return problems


def main(argv):
    if len(argv) < 2:
        print(
            "usage: check_bench_json.py FILE [FILE...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in argv[1:]:
        problems = check_file(path)
        if problems:
            failed = True
            for problem in problems:
                print("%s: %s" % (path, problem), file=sys.stderr)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                count = len(json.load(handle))
            print("%s: OK (%d records)" % (path, count))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
