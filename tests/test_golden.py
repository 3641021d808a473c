"""Every output file of the golden experiments is byte-identical to its
committed digest.

tests/golden_digests.txt holds the sha256 of report.csv and every seed_N/
file of scripts/output_digest.py's GOLDEN runs, under a header with the
numpy and scipy versions and the CPU path (numpy's SIMD dispatch targets
and the OpenBLAS kernel) that wrote it: another path moves the filter's
outputs in their last bits, so a header that differs asks for new digests,
not a fix. A change that alters any output
file fails here with the files it altered. A change that does so on
purpose regenerates the file with `python scripts/output_digest.py --write`
and says so.
"""

from test_bench_targets import OUTPUT_DIGEST, load_module


def parse_digests(lines) -> dict:
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_outputs_match_golden_digests():
    digest = load_module("output_digest", OUTPUT_DIGEST)
    header, *lines = digest.GOLDEN_FILE.read_text().splitlines()
    assert header == digest.header_line(), (
        f"golden digests were written under '{header[2:]}', this run has "
        f"'{digest.header_line()[2:]}': regenerate them with scripts/output_digest.py --write"
    )
    want = parse_digests(lines)
    got = parse_digests(digest.digest_lines(digest.GOLDEN.items()))
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    assert not differ, f"output files differ from their golden digests: {differ}"
    assert got.keys() == want.keys(), (
        f"files missing: {sorted(want.keys() - got.keys())}, unexpected: {sorted(got.keys() - want.keys())}"
    )
