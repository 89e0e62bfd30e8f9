"""Synthetic multi-domain long-tailed benchmark and CSV loaders.

The generator mirrors the structure of the image benchmarks at desk scale:
class anchors in input space give the shared geometry, semantic rows are a
noisy projection of those anchors (so semantic similarity tracks visual
similarity, which the covariance blending relies on), and each domain is an
invertible affine distortion of the shared geometry, i.e. a style that
shifts P(X|Y) while leaving class semantics alone. Training counts follow
the long-tail curve; the thirds rule (``default_tail_budget``) puts the head
third of the classes in every training domain, the middle third in two and
the tail in one. The last domain is held out: only the test split holds it.

File formats (UTF-8, comma-separated, round-trip-exact floats):

- dataset CSV:   header ``domain,label,split,x_0,...,x_{d_x-1}``, one row per
  sample, split in {train, val, test}.
- embedding CSV: header ``label,s_0,...,s_{d_s-1}``, then row c of class c
  for c = 0..C-1, each of unit norm within ``banks.UNIT_TOL``; rows are read
  as written, so a loaded table is bit-identical to the one saved.

Every CSV is written by ``write_rows``. ``gen-data`` also writes a binary
copy of the dataset (``save_dataset_npy``), and the CLI reads it back with
``load_dataset_npy`` in place of parsing the CSV only when the manifest lists
the sha256 of both files and both match; the two loads give bit-identical
columns.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .banks import UNIT_TOL, SemanticTable
from .errors import ConfigError, DataFormatError, check_count
from .losses import DomainClassCounts
from .mathcore import streams

SPLITS = ("train", "val", "test")
_SPLIT_CODES = {tag: i for i, tag in enumerate(SPLITS)}


def longtail_counts(rank: int, n_max: int, n_min: int, n_classes: int) -> int:
    """Training-sample count of the class at 1-based sorted rank.

        n = floor( n_max * (n_min/n_max) ** (sqrt(rank-1) / sqrt(C-1)) )

    Non-increasing in rank; rank 1 gives n_max and rank C lands exactly on
    n_min.
    """
    if not 1 <= rank <= n_classes:
        raise ValueError("rank out of range")
    if n_max < n_min or n_min < 1:
        raise ValueError("need n_max >= n_min >= 1")
    ratio = n_min / n_max
    return int(math.floor(n_max * ratio ** (math.sqrt(rank - 1) / math.sqrt(n_classes - 1))))


def default_tail_budget(n_classes: int, n_train_domains: int) -> tuple[int, ...]:
    """Thirds rule: head third in all domains, middle third in 2, tail in 1."""
    head = math.ceil(n_classes / 3)
    mid = math.ceil(2 * n_classes / 3)
    out = []
    for c in range(n_classes):
        if c < head:
            out.append(n_train_domains)
        elif c < mid:
            out.append(min(2, n_train_domains))
        else:
            out.append(1)
    return tuple(out)


@dataclass(frozen=True)
class SyntheticConfig:
    n_classes: int = 20
    n_train_domains: int = 4
    d_x: int = 12
    d_s: int = 8
    n_max: int = 200
    n_min: int = 5
    anchor_spread: float = 3.0
    noise_scale: float = 0.6
    semantic_noise: float = 0.1
    transform_strength: float = 0.4
    n_val_per_pair: int = 4
    n_test_per_pair: int = 6
    seed: int = 0

    def __post_init__(self):
        check_count("seed", self.seed)
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.n_train_domains < 1:
            raise ConfigError("n_train_domains must be >= 1")
        if not (self.n_max >= self.n_min >= 1):
            raise ConfigError("need n_max >= n_min >= 1")
        check_count("n_val_per_pair", self.n_val_per_pair)
        if self.n_test_per_pair < 1:
            raise ConfigError("n_test_per_pair must be >= 1")


@dataclass
class Dataset:
    """Columnar sample store plus the derived training-count table.

    Domains 0..K-1 are the training domains (they own train/val/test data);
    any domain >= K is held out and appears only in the test split.
    """

    x: np.ndarray          # (N, d_x) float64
    y: np.ndarray          # (N,) int64
    d: np.ndarray          # (N,) int64
    split: np.ndarray      # (N,) int8 code, an index into SPLITS
    counts: DomainClassCounts
    semantic: SemanticTable | None = None
    _indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_classes(self) -> int:
        return self.counts.n_classes

    @property
    def n_train_domains(self) -> int:
        return self.counts.n_domains

    @property
    def heldout_domains(self) -> list[int]:
        """The domains with no training data, which only the test split
        holds; the first is scored as unseen (Acc-U)."""
        return [int(k) for k in self.domains_of("test") if k >= self.n_train_domains]

    def indices(self, split: str, domain: int | None = None) -> np.ndarray:
        """Row indices of the split named `split` (one of ``SPLITS``),
        optionally of one domain; computed once per (split, domain) and
        returned read-only. The columns are never changed after
        ``make_dataset``, so the cache cannot go stale."""
        key = (split, domain)
        idx = self._indices.get(key)
        if idx is None:
            sel = self.split == _SPLIT_CODES[split]
            if domain is not None:
                sel &= self.d == domain
            idx = np.nonzero(sel)[0]
            idx.flags.writeable = False
            self._indices[key] = idx
        return idx

    def domains_of(self, split: str) -> np.ndarray:
        """The sorted distinct domains of the split named `split`, computed
        once beside its indices and returned read-only, so a pass over the
        split gathers no copy of its domain column."""
        key = (split, "domains")
        doms = self._indices.get(key)
        if doms is None:
            doms = _distinct(self.d[self.indices(split)])
            doms.flags.writeable = False
            self._indices[key] = doms
        return doms


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, from one sort and a compare
    of neighbours. A bare ``np.unique`` imports ``numpy.ma`` on its first
    call, and ``np.bincount`` would allocate up to the largest value, which
    for domain codes read from a file has no bound."""
    s = np.sort(a)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def make_dataset(x, y, d, split, semantic: SemanticTable | None = None) -> Dataset:
    """Assemble and validate a dataset from columns.

    `split` holds integer codes, indices into ``SPLITS``; they are kept as
    int8. Checks the split invariants: train domains are contiguous from 0,
    every validation (domain, class) pair has training data in that domain,
    and each domain's test split is class-balanced over all classes. Domain
    codes must be nonnegative.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    split = np.asarray(split)
    if split.dtype.kind not in "iu":
        raise ValueError("split must hold integer codes into SPLITS")
    if not (len(x) == len(y) == len(d) == len(split)):
        raise ValueError("column lengths differ")
    if not len(y):
        raise ValueError("dataset has no samples")
    # min and max propagate NaN and reach +-inf, so both are finite exactly
    # when every entry is; no (N, d_x) mask is made
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError("features must be finite")
    unknown = (split < 0) | (split >= len(SPLITS))
    if unknown.any():
        raise ValueError(f"unknown split codes {sorted(set(split[unknown].tolist()))}")
    split = split.astype(np.int8, copy=False)
    train, val, test = (split == code for code in range(len(SPLITS)))

    n_classes = semantic.n_classes if semantic is not None else int(y.max()) + 1
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels out of range")

    domains = _distinct(d)
    if domains[0] < 0:
        raise ValueError(f"negative domain codes {domains[domains < 0].tolist()}")
    train_domains = _distinct(d[train])
    if train_domains.size == 0:
        raise ValueError("dataset has no training samples")
    k = int(train_domains.max()) + 1
    if not np.array_equal(train_domains, np.arange(k)):
        raise ValueError("train domains must be contiguous from 0")
    counts = np.zeros((k, n_classes), dtype=np.int64)
    np.add.at(counts, (d[train], y[train]), 1)
    counts = DomainClassCounts(counts)

    if val.any():
        if (d[val] >= k).any():
            raise ValueError("validation data in a held-out domain")
        if (counts.counts[d[val], y[val]] <= 0).any():
            raise ValueError("validation split contains a class unseen in its domain")

    for dom in domains:
        yd = y[test & (d == dom)]
        per_class = np.bincount(yd, minlength=n_classes)
        if (per_class == 0).any() or per_class.max() != per_class.min():
            raise ValueError(f"test split of domain {dom} is not class-balanced")

    return Dataset(x, y, d, split, counts, semantic)


def generate(cfg: SyntheticConfig) -> Dataset:
    """Draw a complete synthetic benchmark from the config seed."""
    c_total, k_train = cfg.n_classes, cfg.n_train_domains
    anchor_rng, sem_rng, style_rng, assign_rng, sample_rng = streams(cfg.seed, 5)

    anchors = cfg.anchor_spread * anchor_rng.normal(size=(c_total, cfg.d_x))

    proj = sem_rng.normal(size=(cfg.d_s, cfg.d_x)) / math.sqrt(cfg.d_x)
    raw_rows = [proj @ anchors[c] + cfg.semantic_noise * sem_rng.normal(size=cfg.d_s)
                for c in range(c_total)]
    # the one place semantic rows are normalized: the loader reads them as written
    table = SemanticTable(np.stack([r / np.linalg.norm(r) for r in raw_rows]))

    transforms = []
    for _ in range(k_train + 1):
        for _attempt in range(100):
            a = np.eye(cfg.d_x) + cfg.transform_strength \
                * style_rng.normal(size=(cfg.d_x, cfg.d_x)) / math.sqrt(cfg.d_x)
            if abs(np.linalg.det(a)) > 1e-3:
                break
        else:
            raise ConfigError("could not draw an invertible domain transform")
        t = cfg.transform_strength * style_rng.normal(size=cfg.d_x)
        transforms.append((a, t))

    budget = default_tail_budget(c_total, k_train)
    per_class_counts = [longtail_counts(c + 1, cfg.n_max, cfg.n_min, c_total)
                        for c in range(c_total)]
    placement = np.zeros((k_train, c_total), dtype=np.int64)
    for c in range(c_total):
        m = budget[c]
        if per_class_counts[c] < m:
            raise ConfigError(f"class rank {c + 1}: count {per_class_counts[c]} "
                              f"cannot cover {m} domains")
        assigned = np.sort(assign_rng.choice(k_train, size=m, replace=False))
        base, rem = divmod(per_class_counts[c], m)
        order = assign_rng.permutation(assigned)
        for j, dom in enumerate(order):
            placement[dom, c] = base + (1 if j < rem else 0)

    # one block per (split, domain, class) with samples, in row order: train
    # then val over the train domains, then test over all domains, classes
    # innermost
    n_pairs = k_train * c_total
    dom, cls = np.divmod(np.arange(n_pairs + c_total), c_total)
    n_train = placement.ravel()
    blk_d = np.concatenate([dom[:n_pairs], dom[:n_pairs], dom])
    blk_c = np.concatenate([cls[:n_pairs], cls[:n_pairs], cls])
    blk_s = np.repeat(np.arange(len(SPLITS), dtype=np.int8),
                      [n_pairs, n_pairs, n_pairs + c_total])
    blk_n = np.concatenate([n_train, np.where(n_train > 0, cfg.n_val_per_pair, 0),
                            np.full(n_pairs + c_total, cfg.n_test_per_pair)])
    kept = blk_n > 0
    blk_d, blk_c, blk_s, blk_n = blk_d[kept], blk_c[kept], blk_s[kept], blk_n[kept]

    # the blocks' noise drawn back to back from one stream is one draw
    x = sample_rng.normal(size=(int(blk_n.sum()), cfg.d_x))
    x *= cfg.noise_scale
    stops = np.cumsum(blk_n).tolist()
    for k, c, start, stop in zip(blk_d.tolist(), blk_c.tolist(), [0] + stops, stops):
        a, t = transforms[k]
        rows = x[start:stop]
        # one product per block: one over a whole domain sums in another
        # order at some d_x (32, for one), which would change the data
        np.matmul(anchors[c] + rows, a.T, out=rows)
        rows += t

    return make_dataset(x, np.repeat(blk_c, blk_n), np.repeat(blk_d, blk_n),
                        np.repeat(blk_s, blk_n), semantic=table)


def sample_batch(dataset: Dataset, domain: int, batch_size: int, rng: np.random.Generator):
    """Uniform draw with replacement from a domain's training split, so the
    batch preserves the domain's long-tailed class frequencies."""
    idx = dataset.indices("train", domain)
    if idx.size == 0:
        raise ValueError(f"domain {domain} has no training samples")
    sel = idx[rng.integers(0, idx.size, size=batch_size)]
    return dataset.x[sel], dataset.y[sel]


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

WRITE_BLOCK_ROWS = 64  # rows formatted per write; bounds the text held at once


def write_rows(path, header: str, blocks) -> None:
    """Write a CSV of ``header`` and, for each ``(lead, values)`` pair of the
    iterable `blocks` in turn, one line per row of the 2-D float array
    ``values``, led by its cells of the ``lead`` columns (1-D arrays of ints
    or strings). A caller that computes its rows block by block passes a
    generator, so only one block of them exists at a time. Floats print as
    ``repr``, so they round-trip exactly. Rows are formatted
    ``WRITE_BLOCK_ROWS`` at a time from ``tolist()`` slices, so no array
    scalar is made per value and no more than that many rows' text is held."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lead, values in blocks:
            for start in range(0, len(values), WRITE_BLOCK_ROWS):
                block = slice(start, start + WRITE_BLOCK_ROWS)
                heads = zip(*(col[block].tolist() for col in lead))
                fh.write("".join(
                    ",".join(map(str, head)) + "," + ",".join(map(repr, row)) + "\n"
                    for head, row in zip(heads, values[block].tolist())))


def save_dataset(dataset: Dataset, path) -> None:
    d_x = dataset.x.shape[1]
    header = "domain,label,split," + ",".join(f"x_{i}" for i in range(d_x))
    tags = np.array(SPLITS, dtype=object)[dataset.split]
    write_rows(path, header, [((dataset.d, dataset.y, tags), dataset.x)])


def save_dataset_npy(dataset: Dataset, path) -> None:
    """Write the binary copy of a dataset: ``np.save`` of ``x``, then of a
    (3, N) int64 array of domain, label and split code (the index into
    ``SPLITS``). Its bytes depend only on the columns."""
    cols = np.stack([dataset.d, dataset.y, dataset.split.astype(np.int64)])
    with open(path, "wb") as fh:
        np.save(fh, dataset.x, allow_pickle=False)
        np.save(fh, cols, allow_pickle=False)


def load_dataset_npy(path, semantic: SemanticTable | None = None) -> Dataset:
    """Read the binary copy ``save_dataset_npy`` wrote, straight from the
    open file into the returned ``x`` (one copy, no text). Refuses pickled
    objects and other dtypes or shapes, then validates the columns, split
    codes included, as ``make_dataset`` does."""
    try:
        with open(path, "rb") as fh:
            x = np.load(fh, allow_pickle=False)
            cols = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataFormatError(f"{path}: not a dataset copy ({exc})") from exc
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[1] < 1:
        raise DataFormatError(f"{path}: features must be a (N, d_x) float64 array")
    if cols.dtype != np.int64 or cols.shape != (3, len(x)):
        raise DataFormatError(f"{path}: columns must be a (3, N) int64 array")
    try:
        return make_dataset(x, cols[1], cols[0], cols[2], semantic=semantic)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_dataset(path, semantic: SemanticTable | None = None) -> Dataset:
    """Parse a dataset CSV line by line into flat typed buffers, which the
    returned columns view without a copy; neither the file's text nor a
    per-row object is held."""
    xs, ys, ds, tags = array("d"), array("q"), array("q"), array("b")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DataFormatError("empty dataset file")
        header = first.rstrip("\n").split(",")
        if header[:3] != ["domain", "label", "split"]:
            raise DataFormatError("header must start with domain,label,split", line=1)
        d_x = len(header) - 3
        if d_x < 1 or header[3:] != [f"x_{i}" for i in range(d_x)]:
            raise DataFormatError("feature columns must be x_0..x_{d-1}", line=1)

        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3 + d_x:
                raise DataFormatError(f"expected {3 + d_x} fields, got {len(parts)}", line=ln)
            try:
                ds.append(int(parts[0]))
                ys.append(int(parts[1]))
                xs.extend(map(float, parts[3:]))
            except ValueError as exc:
                raise DataFormatError(str(exc), line=ln) from exc
            except OverflowError as exc:  # an int beyond int64
                raise DataFormatError(f"domain or label out of range ({exc})",
                                      line=ln) from exc
            tag = _SPLIT_CODES.get(parts[2])
            if tag is None:
                raise DataFormatError(f"unknown split tag {parts[2]!r}", line=ln)
            tags.append(tag)
    x = np.frombuffer(xs, dtype=np.float64).reshape(-1, d_x)
    try:
        return make_dataset(x, np.frombuffer(ys, dtype=np.int64),
                            np.frombuffer(ds, dtype=np.int64), np.frombuffer(tags, dtype=np.int8),
                            semantic=semantic)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


def save_embeddings(table: SemanticTable, path) -> None:
    header = "label," + ",".join(f"s_{i}" for i in range(table.dim))
    write_rows(path, header, [((np.arange(table.n_classes),), table.s)])


def load_embeddings(path) -> SemanticTable:
    """Read the table ``save_embeddings`` wrote, keeping each row as parsed.
    The header gives d_s; row c must be class c, for c = 0..C-1, with unit
    norm within ``UNIT_TOL``. A row out of class order, or a scaled, zero or
    non-finite row, is refused naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty embedding file")
    header = lines[0].split(",")
    d_s = len(header) - 1
    if d_s < 1 or header != ["label"] + [f"s_{i}" for i in range(d_s)]:
        raise DataFormatError("embedding header must be label,s_0..s_{d_s-1}", line=1)
    rows: list[list[float]] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 1 + d_s:
            raise DataFormatError(f"expected {1 + d_s} fields, got {len(parts)}", line=ln)
        c = len(rows)
        if parts[0] != str(c):
            raise DataFormatError(f"expected class {c}, got {parts[0]!r}", line=ln)
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DataFormatError(str(exc), line=ln) from exc
        norm = math.hypot(*row)
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise DataFormatError(f"class {c} has norm {norm!r}, not 1 within {UNIT_TOL:g}",
                                  line=ln)
        rows.append(row)
    if not rows:
        raise DataFormatError("embedding file has no class rows")
    try:
        return SemanticTable(np.array(rows))
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
