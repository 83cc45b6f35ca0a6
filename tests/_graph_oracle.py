"""The dependency-graph checks as ratho had them with a Tarjan SCC pass.

These are the earlier versions of the generator-order search, its cycle
witness, the minimality test and the relative minimality offenders.  They
find strongly connected components with Tarjan's algorithm and count a
term's base and new factors separately, so they share no code with the
reachability helpers that replaced them.  Tests compare the library's
_order, is_minimal, _linear_offenders and _relative_sullivan against them.
"""

from ratho.linfty import SullivanCertificate, _dependencies


def _strongly_connected(names, deps):
    # Tarjan, iterative; edge g -> h when h in deps[g]
    index = {}
    low = {}
    onstack = {}
    stack = []
    comps = []
    counter = [0]
    for root in names:
        if root in index:
            continue
        work = [(root, iter(sorted(deps[root], key=names.index)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    onstack[nxt] = True
                    work.append((nxt, iter(sorted(deps[nxt], key=names.index))))
                    advanced = True
                    break
                if onstack.get(nxt):
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
    return comps


def _cycle_witness(names, deps):
    comps = [c for c in _strongly_connected(names, deps)
             if len(c) > 1 or c[0] in deps[c[0]]]
    comps.sort(key=lambda c: min(names.index(g) for g in c))
    comp = set(comps[0])
    start = min(comp, key=names.index)
    if start in deps[start]:
        return [start]
    path = [start]
    seen = {start}
    while True:
        node = path[-1]
        inside = [h for h in sorted(deps[node], key=names.index) if h in comp]
        fresh = [h for h in inside if h not in seen]
        if fresh:
            path.append(fresh[0])
            seen.add(fresh[0])
            continue
        # close at the dependency that appears earliest in the path
        back = min(inside, key=path.index)
        return path[path.index(back):]


def _order(names, deps):
    """Kahn's algorithm over names; deps maps each name to those it needs."""
    placed = set()
    order = []
    while len(order) < len(names):
        ready = [g for g in names
                 if g not in placed and deps[g] <= placed]
        if not ready:
            return SullivanCertificate(cycle=_cycle_witness(names, deps))
        order.append(ready[0])
        placed.add(ready[0])
    return SullivanCertificate(order=order)


def is_minimal(A):
    """Decide minimality; returns (flag, offending generator names).

    A generator offends if its differential has a word-length-1 term.  When
    generators of degree at most 1 are present, a Sullivan order that is
    monotone in degree must also exist: no generator may depend on one of
    strictly larger degree, and the dependencies within each fixed degree
    must be acyclic.
    """
    deps = _dependencies(A)
    offenders = []
    for name in A.gens.names:
        if any(sum(m) == 1 for m in A.d[name].terms):
            offenders.append(name)
    if any(d <= 1 for d in A.gens.degrees):
        names = list(A.gens.names)
        deg = dict(zip(A.gens.names, A.gens.degrees))
        for name in names:
            if name in offenders:
                continue
            if any(deg[h] > deg[name] for h in deps[name]):
                offenders.append(name)
        level_deps = {g: {h for h in deps[g] if deg[h] == deg[g]}
                      for g in names}
        in_cycle = set()
        for comp in _strongly_connected(names, level_deps):
            if len(comp) > 1 or comp[0] in level_deps[comp[0]]:
                in_cycle.update(comp)
        offenders.extend(g for g in names
                         if g in in_cycle and g not in offenders)
        offenders.sort(key=names.index)
    return (not offenders), offenders


def _relative_sullivan(ext):
    deps = _dependencies(ext.total)
    new = list(ext.new_names)
    return _order(new, {g: deps[g].intersection(new) for g in new})


def _minimality_offenders(ext):
    gens = ext.total.gens
    base = set(ext.base.gens.names)
    offenders = []
    for g in ext.new_names:
        for m in ext.total.d[g].terms:
            newlen = baselen = 0
            for i, e in enumerate(m):
                if gens.names[i] in base:
                    baselen += e
                else:
                    newlen += e
            if baselen == 0 and newlen == 1:
                offenders.append(g)
                break
    return offenders
