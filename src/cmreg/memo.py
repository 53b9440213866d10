"""Per-object memoization: the one cache rule of cmreg.

Rings, modules and complexes carry a `_cache` dict, and every result kept
there goes through `_cached`.  The rule: compute() runs once per object
and key; None in the cache is a miss (no cached computation returns
None); an exception from compute() propagates and stores nothing, so a
failing call fails again.  Keys are strings or (name, argument) tuples,
for example "gb" or ("H", i).  "resolution" grows once stored: it holds
an object's longest resolution so far, which a longer cut resumes.

A key may name a thing up to an equivalence, so that equal things share
one entry.  The cover ring keeps the local cohomology rows of a module
under ("duality", key), key the module's generator twists less the
lowest one and its reduced Groebner basis (regularity._module_key): the
entry holds the rows of the module shifted to start in degree 0, and M
and M(d) both read it, each shifting it back by its own lowest twist.
It is the duality route's only entry.
"""


def _cached(obj, key, compute):
    """obj._cache[key], filled by compute() on the first call."""
    got = obj._cache.get(key)
    if got is None:
        got = compute()
        obj._cache[key] = got
    return got
