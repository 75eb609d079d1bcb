"""Two-player game graphs, strategies, and provenance valuations.

Positions are arbitrary hashable labels.  Strategies are finite subtrees of
the unraveling, stored through their occurrence counts; conceptually
infinite strategies (for cyclic games) can be described by explicit counts
with infinite exponents, but are never materialized as trees.
"""

from dataclasses import dataclass, field
from itertools import chain
from math import prod

from .errors import (
    BudgetExceeded,
    CyclicGame,
    InfExponentUnsupported,
    MalformedGame,
    ProvError,
)
from .infinity import INF, ext_le

TERMINAL = "terminal"
_UNKNOWN = object()  # topological order not computed yet


class GameGraph:
    """Finite game graph (V, V0, V1, T, E); vE is empty iff v is terminal."""

    def __init__(self, owners, moves):
        """owners: mapping position -> 0 | 1 | 'terminal'; moves: edge pairs."""
        self.owners = dict(owners)
        self.moves = list(map(tuple, moves))
        if (len(set(self.moves)) != len(self.moves)
                or not self.owners.keys() >= set(chain.from_iterable(self.moves))):
            self._reject_moves()
        self._succ = {v: [] for v in self.owners}
        for u, v in self.moves:
            self._succ[u].append(v)
        self._order = _UNKNOWN

    @classmethod
    def _trusted(cls, owners, moves, successors, order):
        """Trusted constructor for `build_mc_game`, whose search builds the
        owners, the moves, each position's successor list in `moves` order,
        and the topological order (None if cyclic), all taken over as they
        are.  The checks of `__init__` hold by construction.  No parallel
        move: the keys of a position's successors differ (other occurrences,
        or other universe elements, which are distinct), and so do their
        positions.  No unknown end: every move joins two numbered positions."""
        game = object.__new__(cls)
        game.owners = owners
        game.moves = moves
        game._succ = successors
        game._order = order
        return game

    def _reject_moves(self):
        """Raise for the first parallel move or move with an unknown end."""
        seen = set()
        for u, v in self.moves:
            if (u, v) in seen:
                raise MalformedGame(f"parallel move {u!r} -> {v!r}")
            seen.add((u, v))
            if u not in self.owners or v not in self.owners:
                raise MalformedGame(f"move {u!r} -> {v!r} uses unknown position")

    @property
    def positions(self):
        return list(self.owners)

    def owner(self, v):
        return self.owners[v]

    def successors(self, v):
        return list(self._succ[v])

    def is_terminal(self, v):
        return self.owners[v] == TERMINAL

    @property
    def terminals(self):
        return [v for v, o in self.owners.items() if o == TERMINAL]

    def check_structure(self):
        for v, o in self.owners.items():
            empty = not self._succ[v]
            if o == TERMINAL and not empty:
                raise MalformedGame(f"terminal {v!r} has outgoing moves")
            if o != TERMINAL and empty:
                raise MalformedGame(f"non-terminal {v!r} has no moves (vE must be nonempty)")
            if o not in (0, 1, TERMINAL):
                raise MalformedGame(f"position {v!r} has bad owner tag {o!r}")

    def topological_order(self):
        """Reverse-dependency order (successors first); None if cyclic.

        The order in which a depth-first search from each position in turn
        finishes them; moves are fixed at construction, so it is computed
        once per graph.  A model-checking game gets it from the search that
        built it (`GameGraph._trusted`), which is the same search.
        """
        if self._order is _UNKNOWN:
            self._order = self._depth_first_order()
        return None if self._order is None else list(self._order)

    def _depth_first_order(self):
        done = set()
        active = set()
        order = []
        for root in self.owners:
            if root in done:
                continue
            active.add(root)
            stack = [(root, iter(self._succ[root]))]
            while stack:
                v, successors = stack[-1]
                for w in successors:
                    if w in active:
                        return None
                    if w not in done:
                        active.add(w)
                        stack.append((w, iter(self._succ[w])))
                        break
                else:
                    stack.pop()
                    active.discard(v)
                    done.add(v)
                    order.append(v)
        return order

    def is_acyclic(self):
        return self.topological_order() is not None


def validate_game(game):
    """Check structural invariants; report cyclicity and unreachable positions.

    A position counts as unreachable when no source position (one without
    predecessors) can reach it.  Raises MalformedGame on invariant violation.
    """
    game.check_structure()
    order = game.topological_order()
    has_pred = {v: False for v in game.owners}
    for _, w in game.moves:
        has_pred[w] = True
    sources = [v for v, p in has_pred.items() if not p]
    reached = set()
    stack = list(sources)
    while stack:
        v = stack.pop()
        if v in reached:
            continue
        reached.add(v)
        stack.extend(game.successors(v))
    unreachable = [] if not sources else [v for v in game.owners if v not in reached]
    return {
        "positions": len(game.owners),
        "moves": len(game.moves),
        "acyclic": order is not None,
        "unreachable": sorted(map(str, unreachable)),
    }


class BasicValuation:
    """Terminal values f_sigma and move values h_sigma over one semiring."""

    def __init__(self, handle, player, terminal_values, move_values=None):
        self.handle = handle
        self.player = player
        self.f = dict(terminal_values)
        self.h = dict(move_values or {})
        for e, value in self.h.items():
            if value == handle.zero:
                raise ProvError(f"move value for {e!r} must be nonzero")

    def terminal_value(self, t):
        return self.f[t]

    def move_value(self, e):
        return self.h.get(e, self.handle.one)


def acyclic_valuation(game, basic):
    """The backward-induction K-valuation of an acyclic game: its equation
    system evaluated once per position, successors first."""
    # Imported on first use: importing solver (and with it poly and
    # semirings) while games itself is loading raised the peak memory of
    # `import provgames` by about half a megabyte.
    from .solver import build_system

    order = game.topological_order()
    if order is None:
        raise CyclicGame("acyclic valuation requires an acyclic game graph")
    system = build_system(game, basic)
    values = {}
    for v in order:
        values[v] = system.evaluate(v, values)
    return values


@dataclass
class Strategy:
    """A strategy recorded by its occurrence counts under the projection.

    position_counts covers every position occurring in the subtree (the
    formula for F(S) only consumes the terminal ones) except the leaves cut
    off at a depth bound; move_counts includes the moves into those leaves;
    admits_infinite says whether any leaf was cut (an unfinished play).
    paths are the subtree's nodes, each a path of positions from the root.
    """

    owner: int
    root: object
    position_counts: dict
    move_counts: dict
    admits_infinite: bool = False
    paths: tuple = ()

    def outcome_counts(self, game):
        return {t: c for t, c in self.position_counts.items() if game.is_terminal(t)}

    @classmethod
    def from_paths(cls, owner, root, paths, game):
        """The strategy whose subtree has the nodes `paths`.

        A leaf at a non-terminal position was cut at the depth bound, so no
        path is longer; any other node at a non-terminal position has a
        child, so is shorter.  The cut leaves are thus the longest paths
        that end at a non-terminal position.
        """
        longest = max(map(len, paths))
        position_counts = {}
        move_counts = {}
        admits_infinite = False
        for path in paths:
            v = path[-1]
            if len(path) == longest and not game.is_terminal(v):
                admits_infinite = True
            else:
                position_counts[v] = position_counts.get(v, 0) + 1
            if len(path) > 1:
                e = (path[-2], v)
                move_counts[e] = move_counts.get(e, 0) + 1
        return cls(
            owner=owner,
            root=root,
            position_counts=position_counts,
            move_counts=move_counts,
            admits_infinite=admits_infinite,
            paths=tuple(sorted(paths)),
        )


def enumerate_strategies(game, player, root, max_nodes=100_000, depth=None):
    """All strategies of `player` from `root`; raises BudgetExceeded.

    With a `depth` n, plays are cut to fewer than n moves: a play that is at
    a non-terminal position after n - 1 moves ends there in a cut leaf, and
    the strategies are those of the n-truncation of the game (see
    `truncate`), with counts of the original positions and moves.  Without
    one, enumeration is complete for acyclic games; on cyclic games the
    growing paths blow the budget.  Every node, cut leaves included,
    counts towards `max_nodes`.
    """
    if depth is not None and depth < 1:
        raise ProvError("truncation depth must be >= 1")
    budget = max_nodes
    # A frame [path, successors left, player's choice?, node sets so far]
    # per position being expanded: a choice collects its children's node
    # sets one after another, any other position takes their product.
    # Nodes are entered in depth-first order, as a recursive expansion would.
    stack = []

    def enter(path):
        """Count the node; the node sets of a leaf, or None once the frame
        of a position to expand is pushed."""
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetExceeded(f"strategy enumeration exceeded {max_nodes} nodes")
        v = path[-1]
        if game.is_terminal(v) or len(path) == depth:
            return [[path]]
        choice = game.owner(v) == player
        stack.append([path, iter(game.successors(v)), choice, [] if choice else [[path]]])
        return None

    done = enter((root,))  # the node sets of the node finished last
    while stack:
        frame = stack[-1]
        path, successors, choice, acc = frame
        if done is not None:
            if choice:
                acc.extend([path] + sub for sub in done)
            else:
                frame[3] = [part + sub for part in acc for sub in done]
            done = None
            continue
        for w in successors:
            done = enter(path + (w,))
            break
        else:
            stack.pop()
            done = acc

    return [
        Strategy.from_paths(player, root, node_set, game)
        for node_set in done
    ]


def count_strategies(game, player, root, max_nodes=100_000, depth=None):
    """The number of strategies `enumerate_strategies` lists, found without
    building any; raises BudgetExceeded where enumeration would.

    By the strategy-sum theorem (acceptance criterion 2), the number of
    strategies from the root is the nat value of the game with every
    terminal, cut leaf and move worth 1: a position of `player` adds up its
    successors' counts, any other position multiplies them.  With a `depth`,
    that game is the layered one on (position, moves left), in which a
    position with no moves left is a cut leaf; without one, the game must be
    acyclic from the root.  Each (position, moves left) pair is valued once,
    so the work is at most |V| * depth pairs where the unravelling is
    exponential.

    The same pass counts the nodes of each pair's unravelling, which
    enumeration charges to its budget.  Every pair valued lies in the
    root's unravelling, so enumeration exceeds its budget once a pair has
    more than `max_nodes` nodes, a path more than `max_nodes` positions, or
    a cycle is reached without a depth.
    """
    if depth is not None and depth < 1:
        raise ProvError("truncation depth must be >= 1")
    over = BudgetExceeded(f"strategy enumeration exceeded {max_nodes} nodes")
    counted = {}  # (position, moves left) -> (strategies, nodes)
    start = (root, None if depth is None else depth - 1)
    stack, open_pairs = [start], {start}
    while stack:
        if len(stack) > max_nodes:
            raise over
        pair = stack[-1]
        v, left = pair
        if game.is_terminal(v) or left == 0:
            counted[pair] = (1, 1)
        else:
            below = [(w, None if left is None else left - 1) for w in game.successors(v)]
            todo = next((p for p in below if p not in counted), None)
            if todo is not None:
                if todo in open_pairs:
                    raise over
                stack.append(todo)
                open_pairs.add(todo)
                continue
            counts = [counted[p] for p in below]
            nodes = 1 + sum(n for _, n in counts)
            if nodes > max_nodes:
                raise over
            strategies = (sum if game.owner(v) == player else prod)(s for s, _ in counts)
            counted[pair] = (strategies, nodes)
        stack.pop()
        open_pairs.discard(pair)
    return counted[start][0]


def strategy_value(strategy, game, basic, mode="acyclic"):
    """F(S) / F^mu(S) / F^nu(S) for one strategy.

    mode 'acyclic': the plain product formula (well-founded strategies only);
    'mu': 0 whenever the strategy admits an infinite play; 'nu': the pure
    outcome product with exponents in N u {inf} and h ignored for infinite
    plays (which count as 1).
    """
    handle = basic.handle
    if mode == "acyclic":
        if strategy.admits_infinite:
            raise ProvError("acyclic strategy value needs a well-founded strategy")
        return _finite_strategy_product(strategy, game, basic)
    if mode == "mu":
        if strategy.admits_infinite:
            return handle.zero
        return _finite_strategy_product(strategy, game, basic)
    if mode == "nu":
        value = handle.one
        for t, c in strategy.outcome_counts(game).items():
            base = basic.terminal_value(t)
            if c is INF:
                value = handle.mul(value, handle.pow_inf(base))
            else:
                value = handle.mul(value, handle.power(base, c))
        return value
    raise ProvError(f"unknown strategy value mode {mode!r}")


def _finite_strategy_product(strategy, game, basic):
    handle = basic.handle
    value = handle.one
    for e, c in strategy.move_counts.items():
        if c is INF:
            raise InfExponentUnsupported("finite strategy product with infinite count")
        value = handle.mul(value, handle.power(basic.move_value(e), c))
    for t, c in strategy.outcome_counts(game).items():
        if c is INF:
            raise InfExponentUnsupported("finite strategy product with infinite count")
        value = handle.mul(value, handle.power(basic.terminal_value(t), c))
    return value


def play_values(strategy, game, basic):
    """Values of the individual plays admitted by a finite strategy tree."""
    values = []
    for path in strategy.paths:
        if not game.is_terminal(path[-1]):
            continue
        handle = basic.handle
        v = basic.terminal_value(path[-1])
        for a, b in zip(path, path[1:]):
            v = handle.mul(v, basic.move_value((a, b)))
        values.append(v)
    return values


def absorption_dominates(s1, s2, game):
    """True iff s1 absorbs s2: pointwise fewer plays per outcome, and an
    infinite play in s1 forces one in s2."""
    if s1.owner != s2.owner or s1.root != s2.root:
        raise ProvError("absorption compares strategies of one player from one root")
    return _absorbs((s1.outcome_counts(game), s1.admits_infinite),
                    (s2.outcome_counts(game), s2.admits_infinite))


def _absorbs(a, b):
    """`absorption_dominates` on (outcome counts, admits_infinite) pairs.  An
    outcome that a has no play to needs no check: 0 <= every count."""
    (o1, infinite1), (o2, infinite2) = a, b
    return (infinite2 or not infinite1) and all(ext_le(c, o2.get(t, 0)) for t, c in o1.items())


def absorption_dominant_flags(strategies, game):
    """Per-strategy flags: maximal w.r.t. strict absorption by another.
    Each strategy's outcome counts are computed once, not once per compare."""
    if len({(s.owner, s.root) for s in strategies}) > 1:
        raise ProvError("absorption compares strategies of one player from one root")
    keys = [(s.outcome_counts(game), s.admits_infinite) for s in strategies]
    return [not any(j != i and _absorbs(other, key) and not _absorbs(key, other)
                    for j, other in enumerate(keys))
            for i, key in enumerate(keys)]


def truncate(game, basic, n, boundary="zero"):
    """The truncation to paths of fewer than n moves, as an acyclic game.

    Positions of the result are paths (tuples) of original positions; roots
    are the single-element paths.  Unfinished-play leaves get value 0
    (boundary 'zero', lfp analysis) or 1 (boundary 'one', gfp analysis).
    Returns (game, basic valuation, cutoff leaf set).
    """
    if n < 1:
        raise ProvError("truncation depth must be >= 1")
    handle = basic.handle
    owners = {}
    moves = []
    f = {}
    h = {}
    cutoffs = set()
    stack = [(v,) for v in game.owners]
    while stack:
        path = stack.pop()
        if path in owners:
            continue
        v = path[-1]
        if game.is_terminal(v):
            owners[path] = TERMINAL
            f[path] = basic.terminal_value(v)
        elif len(path) - 1 == n - 1:
            owners[path] = TERMINAL
            f[path] = handle.zero if boundary == "zero" else handle.one
            cutoffs.add(path)
        else:
            owners[path] = game.owner(v)
            for w in game.successors(v):
                child = path + (w,)
                moves.append((path, child))
                h[(path, child)] = basic.move_value((v, w))
                stack.append(child)
    truncated_game = GameGraph(owners, moves)
    truncated_basic = BasicValuation(handle, basic.player, f, h)
    return truncated_game, truncated_basic, cutoffs


def check_separating(game, basic0, basic1, mode="separating"):
    """Per-position separation verdicts for a pair of player valuations."""
    if mode not in ("separating", "weak", "strong"):
        raise ProvError(f"unknown separation mode {mode!r}")
    if basic0.handle is not basic1.handle and basic0.handle != basic1.handle:
        raise ProvError("both valuations must use the same semiring")
    handle = basic0.handle
    f0 = acyclic_valuation(game, basic0)
    f1 = acyclic_valuation(game, basic1)
    verdicts = {}
    for v in game.owners:
        a, b = f0[v], f1[v]
        separating = a == handle.zero or b == handle.zero
        if mode == "separating":
            verdicts[v] = separating
        elif mode == "weak":
            verdicts[v] = handle.mul(a, b) == handle.zero
        else:
            verdicts[v] = separating and handle.add(a, b) != handle.zero
    return {"mode": mode, "verdicts": verdicts, "all": all(verdicts.values())}


def _bipartite_match(left, right, allowed):
    """Maximum matching by augmenting paths; returns dict left->right."""
    match_l = {}
    match_r = {}

    def augment(u, visited):
        for w in right:
            if (u, w) in allowed and w not in visited:
                visited.add(w)
                if w not in match_r or augment(match_r[w], visited):
                    match_l[u] = w
                    match_r[w] = u
                    return True
        return False

    for u in left:
        augment(u, set())
    return match_l if len(match_l) == len(left) else None


def verify_counting_bisim(game1, game2, relation, basics=None):
    """Check that the given relation is a counting bisimulation.

    basics, when given, is a pair per player of (basic1, basic2) valuations:
    {player: (BasicValuation on game1, BasicValuation on game2)}; terminal
    and move values must then agree across related pairs.
    """
    relation = set(relation)
    failures = []
    for v, w in relation:
        o1, o2 = game1.owner(v), game2.owner(w)
        if o1 != o2:
            failures.append((v, w, "owner mismatch"))
            continue
        if basics and o1 == TERMINAL:
            for player, (b1, b2) in basics.items():
                if b1.terminal_value(v) != b2.terminal_value(w):
                    failures.append((v, w, f"terminal value mismatch (player {player})"))
        succ1 = game1.successors(v)
        succ2 = game2.successors(w)
        if len(succ1) != len(succ2):
            failures.append((v, w, "successor count mismatch"))
            continue
        allowed = set()
        for a in succ1:
            for b in succ2:
                if (a, b) not in relation:
                    continue
                if basics and any(
                    b1.move_value((v, a)) != b2.move_value((w, b))
                    for b1, b2 in basics.values()
                ):
                    continue
                allowed.add((a, b))
        if succ1 and _bipartite_match(succ1, succ2, allowed) is None:
            failures.append((v, w, "no local bijection"))
    return {"valid": not failures, "failures": failures}


@dataclass(frozen=True)
class Objective:
    kind: str  # 'reachability' or 'safety'
    terminals: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in ("reachability", "safety"):
            raise ProvError(f"unknown objective kind {self.kind!r}")


def winning_region(game, objective, player):
    """Classical attractor (or its safety dual) oracle for winning positions."""
    if objective.kind == "reachability":
        win = {t for t in game.terminals if t in objective.terminals}
        changed = True
        while changed:
            changed = False
            for v in game.owners:
                if v in win or game.is_terminal(v):
                    continue
                succ = game.successors(v)
                ok = (
                    any(w in win for w in succ)
                    if game.owner(v) == player
                    else all(w in win for w in succ)
                )
                if ok:
                    win.add(v)
                    changed = True
        return win
    # Safety: avoid the losing terminals; infinite plays are winning.
    win = {v for v in game.owners if not (game.is_terminal(v) and v in objective.terminals)}
    changed = True
    while changed:
        changed = False
        for v in list(win):
            if game.is_terminal(v):
                continue
            succ = game.successors(v)
            ok = (
                any(w in win for w in succ)
                if game.owner(v) == player
                else all(w in win for w in succ)
            )
            if not ok:
                win.discard(v)
                changed = True
    return win
