"""The four aift-analyze passes over the srcmodel Program.

Each pass returns a list of Finding objects.  Zero-finding policy: the
tree gate has no baseline file, so anything a pass reports must either be
fixed or carry an `// aift-analyze: allow(<pass>)` seam with a
justification in the surrounding comment.

  lock-discipline      Simulates held-lock sets through every function in
                       call order (scoped locks, manual lock/unlock,
                       UniqueLock& lock-passing, cv waits that release
                       their own lock), propagates may-block summaries
                       bottom-up through the call graph, flags blocking
                       while holding, lock-order cycles, and unjustified
                       AIFT_NO_THREAD_SAFETY_ANALYSIS suppressions.

  determinism-taint    Call-graph reachability from the bit-identity
                       pinned roots (run_blocks*, ContinuousBatch::step,
                       BatchExecutor::run*, InferenceSession::run*,
                       compile_plan*, campaign drivers, stats merges):
                       no ambient clock/entropy read and no unordered-
                       container iteration may be reachable.  Calls
                       through function-typed members/parameters (the
                       injected ClockFn / RNG seams) are unresolvable by
                       construction, which is exactly what makes them the
                       sanctioned boundary.

  annotation-coverage  In any class owning an aift::Mutex: a mutable
                       member without AIFT_GUARDED_BY touched from >= 2
                       member functions, or a public mutable member, is a
                       finding.  const / atomic / cv / mutex members and
                       members only written in ctors/dtor are exempt.

  promise-ledger       Every dequeued request's promise resolves exactly
                       once.  Flags owner values dropped on early return,
                       owner values moved-from inside a try whose error
                       path never revisits them (a move, range-for,
                       resolve or call argument; a size()/empty() read
                       is no revisit), pops from owner
                       containers with no adjacent resolution/move, and
                       straight-line double resolution.
"""

import re

from srcmodel import mask_angles

PRIMITIVE_CLASSES = {"Mutex", "MutexLock", "UniqueLock"}


class Finding:
    def __init__(self, path, line, pass_id, message):
        self.path, self.line = path, line
        self.pass_id, self.message = pass_id, message

    def key(self):
        return (self.path, self.line, self.pass_id, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: error: [{self.pass_id}] " \
               f"{self.message}"


def _dedupe(findings):
    seen = set()
    out = []
    for f in sorted(findings, key=Finding.key):
        if f.key() in seen:
            continue
        seen.add(f.key())
        out.append(f)
    return out


def _is_primitive(fn):
    return bool(fn.cls) and fn.cls.split("::")[-1] in PRIMITIVE_CLASSES


# ---------------------------------------------------------------- locks --

def canon_mutex(program, fn, expr):
    e = expr.replace("this->", "").replace("&", "").strip()
    if not e:
        return None
    parts = re.split(r"\.|->", e)
    member = parts[-1].strip()
    if len(parts) > 1:
        owner = program.member_owner(member)
        if owner and owner.members[member].is_mutex:
            return f"{owner.qname}::{member}"
        return f"{fn.qname}#{e}"
    if fn.cls:
        ci = program.class_for(fn.cls)
        if ci and e in ci.members and ci.members[e].is_mutex:
            return f"{ci.qname}::{e}"
    if e in getattr(fn, "local_mutexes", set()):
        return f"{fn.qname}#{e}"
    owner = program.member_owner(e)
    if owner and owner.members[e].is_mutex:
        return f"{owner.qname}::{e}"
    return f"{fn.qname}#{e}"


def _entry_canon(program, fn):
    return {canon_mutex(program, fn, r) for r in fn.requires
            if canon_mutex(program, fn, r)}


def _candidates(program, name):
    return [f for f in program.by_name.get(name, []) if not f.is_dtor]


def _wait_lock_var(arg):
    m = re.match(r"([A-Za-z_]\w*)\s*\.\s*native", arg)
    if m:
        return m.group(1)
    m = re.match(r"([A-Za-z_]\w*)\s*$", arg)
    return m.group(1) if m else None


def _simulate(program, fn, summaries, collect):
    """One pass over fn's events with the current callee summaries.
    Returns (may_block, releases_before_block, findings, edges)."""
    findings = []
    edges = []
    entry = fn.entry_canon
    lock_map = {}  # lock var -> canon mutex
    if fn.lock_params:
        if len(entry) == 1:
            m = next(iter(entry))
            for p in fn.lock_params:
                lock_map[p] = m
        elif collect and not fn.no_tsa:
            # Without REQUIRES the UniqueLock& contract is unverifiable;
            # flagged below for NO_TSA sites, here for plain ones.
            pass
    held = set(entry)
    scoped = []  # (depth, var, mutex, kind)
    block_held = []  # effective held set at each blocking point
    blocked_reason = []

    def acquire(m, line):
        for h in held:
            if h != m:
                edges.append((h, m, fn.file, line))
        if m in held and collect:
            findings.append(Finding(
                fn.file, line, "lock-discipline",
                f"re-acquiring {m} already held on this path in "
                f"{fn.qname} (self-deadlock)"))
        held.add(m)

    for ev in fn.events:
        k = ev.kind
        if k == "scoped_lock":
            m = canon_mutex(program, fn, ev.data["mutex"])
            if m is None:
                continue
            lock_map[ev.data["var"]] = m
            acquire(m, ev.line)
            scoped.append((ev.depth, ev.data["var"], m, ev.data["cls"]))
        elif k == "scope_end":
            while scoped and scoped[-1][0] > ev.depth:
                _, var, m, _ = scoped.pop()
                held.discard(m)
                lock_map.pop(var, None)
        elif k == "manual":
            recv, op = ev.data["recv"], ev.data["op"]
            if recv in lock_map:
                m = lock_map[recv]
            else:
                m = canon_mutex(program, fn, recv)
                ok = False
                if fn.cls:
                    ci = program.class_for(fn.cls)
                    base = re.split(r"\.|->", recv)[-1]
                    ok = bool(ci and base in ci.members and
                              ci.members[base].is_mutex)
                ok = ok or re.split(r"\.|->", recv)[-1] in \
                    getattr(fn, "local_mutexes", set())
                if not ok and "." not in recv and "->" not in recv:
                    continue  # .lock()/.unlock() on a non-mutex object
                if not ok:
                    owner = program.member_owner(re.split(r"\.|->",
                                                          recv)[-1])
                    if not (owner and
                            owner.members[re.split(r'\.|->', recv)[-1]]
                            .is_mutex):
                        continue
            if op == "lock":
                acquire(m, ev.line)
            else:
                held.discard(m)
        elif k == "cv_wait":
            var = _wait_lock_var(ev.data["arg"])
            released = lock_map.get(var) if var else None
            eff = held - ({released} if released else set())
            if eff:
                if collect and not program.allowed(fn.file, ev.line,
                                                   "lock-discipline"):
                    others = ", ".join(sorted(eff))
                    findings.append(Finding(
                        fn.file, ev.line, "lock-discipline",
                        f"condition-variable wait in {fn.qname} blocks "
                        f"while still holding {others}; a wait may only "
                        f"hold the lock it releases"))
            block_held.append(eff)
            blocked_reason.append(f"cv wait at {fn.file}:{ev.line}")
        elif k == "block":
            eff = set(held)
            if eff and collect and not program.allowed(fn.file, ev.line,
                                                       "lock-discipline"):
                findings.append(Finding(
                    fn.file, ev.line, "lock-discipline",
                    f"blocking operation ({ev.data['what']}) in "
                    f"{fn.qname} while holding "
                    f"{', '.join(sorted(eff))}"))
            block_held.append(eff)
            blocked_reason.append(
                f"{ev.data['what']} at {fn.file}:{ev.line}")
        elif k == "call":
            cands = _candidates(program, ev.data["callee"])
            if not cands:
                continue
            blocking = [c for c in cands
                        if summaries.get(c.qname, {}).get("may_block")]
            if blocking:
                rels = None
                for c in blocking:
                    r = summaries[c.qname].get("releases", set())
                    rels = r if rels is None else (rels & r)
                eff = held - (rels or set())
                if eff and collect and not program.allowed(
                        fn.file, ev.line, "lock-discipline"):
                    why = summaries[blocking[0].qname].get("reason", "")
                    findings.append(Finding(
                        fn.file, ev.line, "lock-discipline",
                        f"{fn.qname} calls {ev.data['callee']}() — which "
                        f"may block ({why}) — while holding "
                        f"{', '.join(sorted(eff))}"))
                if eff or not held:
                    block_held.append(eff)
                    blocked_reason.append(
                        f"call to {ev.data['callee']} at "
                        f"{fn.file}:{ev.line}")
                else:
                    # Callee releases every lock we hold before blocking:
                    # our own entry locks are equally protected.
                    block_held.append(eff)
                    blocked_reason.append(
                        f"call to {ev.data['callee']} at "
                        f"{fn.file}:{ev.line}")
            # The REQUIRES check only applies to unqualified plain calls
            # (implicit this / free functions): a method or qualified
            # call's receiver type is unknown to the text model, so
            # name-union resolution would mis-bind e.g. Clock::now() to
            # an unrelated member also named now().
            plain = "qualified" in ev.data and not ev.data["qualified"]
            reqd = [c for c in cands if c.entry_canon]
            if plain and reqd and len(reqd) == len(cands):
                if not any(c.entry_canon <= held for c in reqd):
                    need = " or ".join(
                        sorted({", ".join(sorted(c.entry_canon))
                                for c in reqd}))
                    if collect and not program.allowed(
                            fn.file, ev.line, "lock-discipline"):
                        findings.append(Finding(
                            fn.file, ev.line, "lock-discipline",
                            f"{fn.qname} calls {ev.data['callee']}() "
                            f"which requires holding {need}, but the "
                            f"simulated held set is "
                            f"{{{', '.join(sorted(held)) or ''}}}"))

    # Function-end: scoped locks release; manual imbalance is a finding.
    for _, _, m, _ in scoped:
        held.discard(m)
    if collect and held != entry:
        extra = held - entry
        missing = entry - held
        parts = []
        if extra:
            parts.append(f"still holds {', '.join(sorted(extra))}")
        if missing:
            parts.append(f"released required {', '.join(sorted(missing))} "
                         f"without reacquiring")
        if parts and not program.allowed(fn.file, fn.line,
                                         "lock-discipline"):
            findings.append(Finding(
                fn.file, fn.line, "lock-discipline",
                f"lock imbalance in {fn.qname}: {'; '.join(parts)}"))

    may_block = bool(block_held)
    blocked_entry = set()
    for eff in block_held:
        blocked_entry |= (eff & entry)
    releases = entry - blocked_entry
    reason = blocked_reason[0] if blocked_reason else ""
    return may_block, releases, reason, findings, edges


def _find_cycle(edges):
    adj = {}
    site = {}
    for a, b, f, ln in edges:
        adj.setdefault(a, set()).add(b)
        site.setdefault((a, b), (f, ln))
    state = {}
    stack = []

    def dfs(u):
        state[u] = 1
        stack.append(u)
        for v in sorted(adj.get(u, ())):
            if state.get(v) == 1:
                return stack[stack.index(v):] + [v]
            if v not in state:
                cyc = dfs(v)
                if cyc:
                    return cyc
        state[u] = 2
        stack.pop()
        return None

    for u in sorted(adj):
        if u not in state:
            cyc = dfs(u)
            if cyc:
                return cyc, site
    return None, site


def run_lock_discipline(program):
    for fn in program.functions:
        fn.entry_canon = _entry_canon(program, fn)
    summaries = {}
    for _ in range(30):
        changed = False
        for fn in program.functions:
            if _is_primitive(fn):
                continue
            may_block, releases, reason, _, _ = _simulate(
                program, fn, summaries, collect=False)
            prev = summaries.get(fn.qname)
            cur = {"may_block": may_block, "releases": releases,
                   "reason": reason}
            if prev is None or prev["may_block"] != may_block or \
                    prev["releases"] != releases:
                summaries[fn.qname] = cur
                changed = True
        if not changed:
            break

    findings = []
    all_edges = []
    for fn in program.functions:
        if _is_primitive(fn):
            continue
        _, _, _, fnd, edges = _simulate(program, fn, summaries,
                                        collect=True)
        findings.extend(fnd)
        all_edges.extend(edges)

    chain, sites = _find_cycle(all_edges)
    if chain:
        a, b = chain[0], chain[1]
        f, ln = sites[(a, b)]
        findings.append(Finding(
            f, ln, "lock-discipline",
            "lock-order cycle: " + " -> ".join(chain) +
            " (a consistent acquisition order is required)"))

    # NO_TSA escape hatches must be analyzer-verified: the suppression is
    # justified only when the function declares its lock contract
    # (AIFT_REQUIRES) so the simulation above actually checked it.
    for fn in program.functions:
        if not fn.no_tsa or _is_primitive(fn):
            continue
        if "lock-discipline" in fn.allow:
            continue
        if not fn.entry_canon:
            findings.append(Finding(
                fn.file, fn.line, "lock-discipline",
                f"AIFT_NO_THREAD_SAFETY_ANALYSIS on {fn.qname} without "
                f"AIFT_REQUIRES: the lock-passing contract is "
                f"unverifiable — declare the required mutex (the "
                f"simulation then proves release-before-blocking) or "
                f"add an aift-analyze allow() with justification"))
    return _dedupe(findings)


# ---------------------------------------------------------------- taint --

def _is_root(fn):
    name, cls = fn.name, (fn.cls or "")
    last_cls = cls.split("::")[-1]
    if name.startswith(("run_blocks", "compile_plan", "run_campaign",
                        "run_model_campaign")):
        return True
    if last_cls == "ContinuousBatch" and name == "step":
        return True
    if last_cls == "BatchExecutor" and name in ("run", "run_from"):
        return True
    if last_cls == "InferenceSession" and name.startswith("run"):
        return True
    if name == "merge":
        return True
    return False


def _unordered_evidence(program, fn):
    out = []
    names = set(program.unordered_names.get(fn.file, set()))
    if fn.cls:
        ci = program.class_for(fn.cls)
        if ci:
            names |= {m.name for m in ci.members.values()
                      if "unordered_" in m.type_text}
    for ev in fn.events:
        if ev.kind not in ("range_for", "iter_begin"):
            continue
        target = ev.data["target"]
        base = re.split(r"\.|->", target)[-1]
        hit = base in names
        if not hit:
            owner = program.member_owner(base)
            hit = bool(owner and
                       "unordered_" in owner.members[base].type_text)
        if hit:
            out.append((ev.line,
                        f"iterates unordered container '{target}' "
                        f"(iteration order is implementation-defined)"))
    return out


def run_determinism_taint(program):
    roots = [fn for fn in program.functions if _is_root(fn)]
    findings = []
    # BFS over name-resolved call edges, remembering one witness path.
    parent = {}
    queue = []
    for r in roots:
        if r.qname not in parent:
            parent[r.qname] = None
            queue.append(r)
    by_qname = {}
    for fn in program.functions:
        by_qname.setdefault(fn.qname, fn)
    while queue:
        fn = queue.pop(0)
        for ev in fn.events:
            if ev.kind != "call":
                continue
            for c in _candidates(program, ev.data["callee"]):
                if c.qname not in parent:
                    parent[c.qname] = fn.qname
                    queue.append(c)

    def path_to(qname):
        chain = []
        cur = qname
        while cur is not None:
            chain.append(cur)
            cur = parent.get(cur)
        return " <- ".join(chain)

    for fn in program.functions:
        if fn.qname not in parent:
            continue
        for ev in fn.events:
            if ev.kind == "nondet":
                if program.allowed(fn.file, ev.line, "determinism-taint"):
                    continue
                findings.append(Finding(
                    fn.file, ev.line, "determinism-taint",
                    f"{ev.data['what']} reachable from a bit-identity "
                    f"root: {path_to(fn.qname)}; route it through the "
                    f"injected ClockFn / seeded RNG seam"))
        for line, msg in _unordered_evidence(program, fn):
            if program.allowed(fn.file, line, "determinism-taint"):
                continue
            findings.append(Finding(
                fn.file, line, "determinism-taint",
                f"{msg}, reachable from a bit-identity root: "
                f"{path_to(fn.qname)}"))
    return _dedupe(findings)


# ------------------------------------------------------------- coverage --

WRITE_OP = (r"(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>=|\+\+|--|"
            r"\.\s*(?:push_back|pop_front|pop_back|emplace\w*|erase|clear|"
            r"resize|insert|assign|reset|swap|push|pop|front\(\)\s*=)"
            r"\s*\(?)")


def _member_fns(program, ci):
    return [fn for fn in program.functions
            if fn.cls and (fn.cls == ci.qname or
                           program.class_for(fn.cls) is ci)]


def run_annotation_coverage(program):
    findings = []
    for ci in sorted(program.classes.values(), key=lambda c: c.qname):
        if not ci.owns_mutex:
            continue
        fns = _member_fns(program, ci)
        for mem in sorted(ci.members.values(), key=lambda m: m.line):
            if mem.guarded_by or mem.is_exempt_type or mem.is_const:
                continue
            touch_re = re.compile(rf"(?<![\w.>]){re.escape(mem.name)}\b")
            write_re = re.compile(
                rf"(?<![\w.>]){re.escape(mem.name)}\s*{WRITE_OP}|"
                rf"std::move\s*\(\s*{re.escape(mem.name)}\b")
            touching = []
            mutated = False
            for fn in fns:
                if fn.is_ctor or fn.is_dtor:
                    continue
                if touch_re.search(fn.body):
                    touching.append(fn.name)
                    if write_re.search(fn.body):
                        mutated = True
            if program.allowed(ci.file, mem.line, "annotation-coverage"):
                continue
            if mutated and len(set(touching)) >= 2:
                findings.append(Finding(
                    ci.file, mem.line, "annotation-coverage",
                    f"{ci.qname}::{mem.name} is mutated and touched from "
                    f"{len(set(touching))} member functions "
                    f"({', '.join(sorted(set(touching))[:4])}) of a "
                    f"Mutex-owning class but lacks AIFT_GUARDED_BY"))
            elif mem.access == "public":
                findings.append(Finding(
                    ci.file, mem.line, "annotation-coverage",
                    f"{ci.qname}::{mem.name} is public mutable state in "
                    f"a Mutex-owning class without AIFT_GUARDED_BY; "
                    f"annotate it, make it const, or justify with an "
                    f"aift-analyze allow()"))
    return _dedupe(findings)


# --------------------------------------------------------------- ledger --

def _owner_classes(program):
    direct = {ci.qname: ci for ci in program.classes.values()
              if any("promise" in m.type_text for m in
                     ci.members.values())}
    owners = dict(direct)
    for _ in range(4):
        grew = False
        names = {ci.name for ci in owners.values()}
        for ci in program.classes.values():
            if ci.qname in owners:
                continue
            for m in ci.members.values():
                if any(re.search(rf"\b{re.escape(nm)}\b", m.type_text)
                       for nm in names):
                    owners[ci.qname] = ci
                    grew = True
                    break
        if not grew:
            break
    return owners


def _owner_containers(program, owners):
    """member name -> owning class qname, for container-of-owner members."""
    out = {}
    names = {ci.name for ci in owners.values()}
    for ci in program.classes.values():
        for m in ci.members.values():
            if any(re.search(rf"\b{re.escape(nm)}\b", m.type_text)
                   for nm in names):
                if re.search(r"\b(?:vector|deque|map|unordered_map|queue|"
                             r"list|array)\b", m.type_text):
                    out.setdefault(m.name, ci.qname)
    return out


def _owner_vals(program, fn, owners):
    """Names of by-value owner params and owner locals in fn."""
    vals = []
    names = sorted({ci.name for ci in owners.values()}, key=len,
                   reverse=True)
    if not names:
        return vals
    # Split at top-level commas of the angle-masked text (mask_angles
    # preserves length), but match owner names in the raw text, so a
    # by-value container of owners (std::vector<Pending> batch) counts.
    raw = fn.params_text
    params = mask_angles(raw)
    depth = 0
    start = 0
    segs = []
    for i, c in enumerate(params):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            segs.append(raw[start:i])
            start = i + 1
    segs.append(raw[start:])
    for s in segs:
        if "&" in s or "*" in s:
            continue
        if any(re.search(rf"\b{re.escape(nm)}\b", s) for nm in names):
            m = re.search(r"([A-Za-z_]\w*)\s*$", s)
            if m:
                vals.append((m.group(1), 0))
    pat = re.compile(
        rf"\b(?:{'|'.join(re.escape(n) for n in names)})\s+"
        rf"([A-Za-z_]\w*)\s*[;=({{]")
    for m in pat.finditer(fn.body):
        vals.append((m.group(1), m.start()))
    return vals


def _root(target):
    m = re.match(r"\s*([A-Za-z_]\w*)", target)
    return m.group(1) if m else ""


def _revisited_after(events, names, pos):
    """An event after `pos` that can still settle the owner's elements: a
    move, range-for or resolve on the owner (or an alias of it), or a call
    taking it as an argument. A `.size()`/`.empty()` read of the owner
    inside the arguments does not count — it touches no promise."""
    alt = "|".join(re.escape(n) for n in sorted(names))
    size_read = re.compile(
        rf"(?<![\w.>])(?:{alt})(?:\s*(?:\.|->)\s*\w+(?:\[[^\]]*\])?)*"
        r"\s*(?:\.|->)\s*(?:size|empty)\s*\(\s*\)")
    mention = re.compile(rf"(?<![\w.>])(?:{alt})\b")
    for e in events:
        if e.pos <= pos:
            continue
        if e.kind in ("move", "range_for", "resolve") and \
                _root(e.data["target"]) in names:
            return True
        if e.kind == "call" and mention.search(
                size_read.sub("", e.data["args"])):
            return True
    return False


def run_promise_ledger(program):
    owners = _owner_classes(program)
    containers = _owner_containers(program, owners)
    findings = []
    for fn in program.functions:
        if not fn.body:
            continue
        vals = _owner_vals(program, fn, owners)
        events = fn.events
        try_pos = [e.pos for e in events if e.kind == "try"]
        catch_pos = [e.pos for e in events if e.kind == "catch"]
        aliases = {}
        for e in events:
            if e.kind == "range_for" and not e.data["var"].startswith("["):
                aliases.setdefault(e.data["target"], set()).add(
                    e.data["var"])

        for name, decl_pos in vals:
            covering = []
            for e in events:
                if e.pos < decl_pos:
                    continue
                d = e.data
                if e.kind == "resolve" and d["target"].startswith(name):
                    covering.append(e.pos)
                elif e.kind == "move" and d["target"].split(".")[0] \
                        .split("->")[0] == name:
                    covering.append(e.pos)
                elif e.kind == "call" and re.search(
                        rf"(?<![\w.>]){re.escape(name)}\b", d["args"]):
                    covering.append(e.pos)
                elif e.kind == "range_for" and d["target"].startswith(name):
                    covering.append(e.pos)
                elif e.kind == "return" and re.search(
                        rf"(?<![\w.>]){re.escape(name)}\b", d["expr"]):
                    covering.append(e.pos)
            if not covering:
                continue  # never used: not a dequeue path we can judge
            first_cover = min(covering)
            for e in events:
                if e.kind != "return" or e.pos < decl_pos or \
                        e.pos >= first_cover:
                    continue
                if e.data.get("in_lambda"):
                    continue  # a lambda's return is not this function's
                guard = fn.body[max(0, e.pos - 160):e.pos]
                if re.search(rf"{re.escape(name)}\s*\.\s*(?:empty|size)"
                             r"\s*\(", guard):
                    continue
                if program.allowed(fn.file, e.line, "promise-ledger"):
                    continue
                findings.append(Finding(
                    fn.file, e.line, "promise-ledger",
                    f"early return in {fn.qname} drops owner value "
                    f"'{name}' before any resolution/forward; its "
                    f"promise would never resolve and the ledger "
                    f"(submitted == completed + failed + shed + "
                    f"queue_depth) would not reconcile"))
                break

            # Moved-from inside a try, never revisited after the catch:
            # the un-moved tail is dropped on the error path.
            if try_pos and catch_pos:
                alias_names = {name}
                for tgt, vars_ in aliases.items():
                    if tgt.split(".")[0].split("->")[0] == name:
                        alias_names |= vars_
                t0, c0 = min(try_pos), max(catch_pos)
                moved_in_try = any(
                    e.kind == "move" and t0 < e.pos < c0 and
                    _root(e.data["target"]) in alias_names
                    for e in events)
                if moved_in_try and \
                        not _revisited_after(events, alias_names, c0):
                    line = fn.events[0].line if fn.events else fn.line
                    tline = next(e.line for e in events
                                 if e.kind == "try" and e.pos == t0)
                    if not program.allowed(fn.file, tline,
                                           "promise-ledger") and \
                            "promise-ledger" not in fn.allow:
                        findings.append(Finding(
                            fn.file, tline, "promise-ledger",
                            f"{fn.qname} moves elements out of owner "
                            f"value '{name}' inside a try block but the "
                            f"error path after the catch never revisits "
                            f"'{name}': requests not yet transferred "
                            f"when the exception fires keep unresolved "
                            f"promises (callers hang; ledger breaks)"))

        # Pops/clears on owner containers need adjacent resolution or a
        # move-out of the element.
        for e in events:
            if e.kind != "pop":
                continue
            base = re.split(r"\.|->", e.data["target"])[-1]
            if base not in containers:
                continue
            lo = max(0, e.pos - 400)
            ctx = fn.body[lo:e.pos + 200]
            moved = re.search(r"std\s*::\s*move\s*\(", ctx)
            resolved = any(ev.kind == "resolve" and
                           lo <= ev.pos <= e.pos + 200 for ev in events)
            ranged = any(ev.kind == "range_for" and
                         lo <= ev.pos <= e.pos and
                         re.split(r"\.|->", ev.data["target"])[-1] == base
                         for ev in events)
            if e.data["op"] == "clear":
                ok = resolved or ranged or moved
            else:
                ok = moved or resolved
            if ok:
                continue
            if program.allowed(fn.file, e.line, "promise-ledger") or \
                    "promise-ledger" in fn.allow:
                continue
            findings.append(Finding(
                fn.file, e.line, "promise-ledger",
                f"{fn.qname} removes entries from owner container "
                f"'{e.data['target']}' ({e.data['op']}) with no adjacent "
                f"move-out or promise resolution; dropped requests leave "
                f"submitted != completed + failed + shed + queue_depth"))

        # Straight-line double resolution of the same promise.
        resolves = [e for e in events if e.kind == "resolve"]
        for a, b in zip(resolves, resolves[1:]):
            if a.data["target"] != b.data["target"]:
                continue
            between = fn.body[a.pos:b.pos]
            if re.search(r"[{}]|\belse\b|\bif\b|\bcatch\b|\?|\breturn\b|"
                         r"\bcontinue\b|\bbreak\b", between):
                continue
            if program.allowed(fn.file, b.line, "promise-ledger"):
                continue
            findings.append(Finding(
                fn.file, b.line, "promise-ledger",
                f"{fn.qname} resolves '{b.data['target']}' twice on a "
                f"straight-line path; std::promise::set_value/"
                f"set_exception throws on the second call"))
    return _dedupe(findings)


PASSES = {
    "lock-discipline": run_lock_discipline,
    "determinism-taint": run_determinism_taint,
    "annotation-coverage": run_annotation_coverage,
    "promise-ledger": run_promise_ledger,
}
