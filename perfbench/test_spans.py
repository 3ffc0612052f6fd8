"""Self-time arithmetic of the span recorder, on synthetic span trees.

Run with ``python -m pytest perfbench/test_spans.py`` from the repository
root (it needs only numpy).
"""

import os
import sys
import threading

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder, self_times  # noqa: E402


def _brute_self_times(start, end, parent):
    """Reference: walk time in 1 ns steps, per parent, marking covered ticks."""
    out = []
    for i in range(len(start)):
        covered = set()
        for j in range(len(start)):
            if parent[j] == i:
                lo, hi = max(start[j], start[i]), min(end[j], end[i])
                covered.update(range(lo, hi))
        out.append(end[i] - start[i] - len(covered))
    return out


def test_nested_tree_by_hand():
    # root [0,100): children [10,30) and [40,90); the second has a
    # grandchild [50,60) that must not count against the root
    start = [0, 10, 40, 50]
    end = [100, 30, 90, 60]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [30, 20, 40, 10]


def test_overlapping_and_clipped_children_count_once():
    # children [10,50) and [30,70) overlap by 20; a child [90,130) sticks
    # out past the parent's end and is clipped to [90,100)
    start = [0, 10, 30, 90]
    end = [100, 50, 70, 130]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent).tolist() == [100 - 60 - 10, 40, 40, 40]


def test_several_roots_and_leaf_only():
    assert self_times([5], [9], [-1]).tolist() == [4]
    start = [0, 200, 210, 0 + 1]
    end = [100, 300, 220, 50]
    parent = [-1, -1, 1, 0]
    assert self_times(start, end, parent).tolist() == [51, 90, 10, 49]


def test_random_trees_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        start, end, parent = [], [], []
        for i in range(n):
            p = int(rng.integers(-1, i)) if i else -1
            lo = int(rng.integers(0, 200))
            hi = lo + int(rng.integers(0, 80))
            start.append(lo)
            end.append(hi)
            parent.append(p)
        got = self_times(start, end, parent).tolist()
        assert got == _brute_self_times(start, end, parent)
        assert min(got) >= 0


def test_recorder_nests_calls_and_threads():
    rec = SpanRecorder()

    def leaf():
        return 1

    traced_leaf = rec.wrap(leaf, "leaf")
    traced_mid = rec.wrap(lambda: traced_leaf() + traced_leaf(), "mid")
    traced_root = rec.wrap(lambda: traced_mid(), "root")
    assert traced_root() == 2
    worker = threading.Thread(target=traced_leaf)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    cols = rec.columns()
    names = [rec.names[i] for i in cols["name"]]
    assert sorted(names) == ["leaf", "leaf", "leaf", "mid", "root"]
    by_name = {}
    for k, name in enumerate(names):
        by_name.setdefault(name, []).append(k)
    root, mid = by_name["root"][0], by_name["mid"][0]
    assert cols["parent"][root] == -1
    assert cols["parent"][mid] == root
    nested = [k for k in by_name["leaf"] if cols["parent"][k] == mid]
    assert len(nested) == 2
    # the thread's leaf lives in its own buffer, as a root
    assert sum(1 for k in by_name["leaf"] if cols["parent"][k] == -1) == 1
    summary = rec.summary()
    assert summary["leaf"][0] == 3 and summary["root"][0] == 1
    assert all(self_s >= 0 for _calls, self_s in summary.values())
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert own[root] == (cols["end"][root] - cols["start"][root]) - (
        cols["end"][mid] - cols["start"][mid]
    )
