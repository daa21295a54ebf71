"""Read-only probes of a cache's and a hierarchy's state, for tests.

They read the tag, dirty and data arrays directly: which cache pages
hold dirty lines of a frame, what one cached line holds, and which line
tags the victim cache and the L2 keep.
"""

from repro.hw.hierarchy import _INVALID


def dirty_lines(cache, cache_page, pa_page_base):
    """How many lines of the frame are dirty in ``cache_page``."""
    sets = cache._page_sets(cache_page)
    want = cache._page_tags(pa_page_base)
    return int(((cache._tags[:, sets] == want)
                & cache._dirty[:, sets]).sum())


def dirty_cache_pages(cache, pa_page_base):
    """Cache pages currently holding dirty lines of the frame."""
    return [cp for cp in range(cache.geo.num_cache_pages)
            if dirty_lines(cache, cp, pa_page_base)]


def line_value(cache, cache_page, pa_page_base, line):
    """The cached words of one line of the frame, or None if absent."""
    sets = cache._page_sets(cache_page)
    want = cache._page_tags(pa_page_base)
    for way in range(cache.geo.associativity):
        if cache._tags[way, sets][line] == want[line]:
            return cache._data[way, sets][line].copy()
    return None


def victim_tags(victim):
    """The victim cache's line tags, oldest capture first."""
    return list(victim._lines)


def l2_tags(l2):
    """The L2's valid line tags, sorted."""
    return sorted(int(t) for t in l2._tags[l2._tags != _INVALID])


def hierarchy_tags(hierarchy):
    """``{"victim": [...], "l2": [...]}`` for the levels present."""
    out = {}
    if hierarchy.victim is not None:
        out["victim"] = sorted(victim_tags(hierarchy.victim))
    if hierarchy.l2 is not None:
        out["l2"] = l2_tags(hierarchy.l2)
    return out
