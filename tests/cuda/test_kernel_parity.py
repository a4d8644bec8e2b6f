"""Kernel parity: every device kernel pinned against frozen bytes.

Each kernel cell launches one of the 14 kernels (``kmeans/gpu.py``,
``graph/build.py``, ``graph/laplacian.py``) twice over: on whole operands,
and on ``view_rows(lo, hi)`` operands cut from larger buffers at an odd row
offset.  Both launches run fewer logical threads than ``grid·block``.  A
cell compares against frozen values:

* the SHA-256 of every buffer the launch could touch (for a view, its
  whole backing buffer, so writes outside the view show up too);
* the ``(name, duration)`` list of the timeline events the launch added;
* the ``kernel_launches`` delta.

Each ``kmeans_device`` cell runs Algorithm 4 at one ``KNOB_GRID`` entry
and tile size and pins the bytes of ``labels``, ``centroids`` and
``inertia_history``, plus its launch count and a digest of its timeline.

The existing tests compare paths with each other; this table compares
against fixed bytes, so a change that moves every path at once fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cuda.kernel import launch
from repro.cuda.launch import grid_1d
from repro.graph import build
from repro.graph.laplacian import scale_elements, scale_elements_sym
from repro.kmeans import gpu
from repro.kmeans.gpu import kmeans_device
from repro.kmeans.init import kmeans_plus_plus

from tests.kmeans.test_gpu import KNOB_GRID

#: logical threads per launch; the 8-thread blocks leave 3 masked threads
T = 29
BLOCK = 8
#: row offset (odd) and trailing rows of the buffers a view is cut from
LO, TAIL = 3, 5
N_POINTS, D, K = 37, 4, 5


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


class _Operands:
    """Uploads host arrays; per-thread ones become views when ``view``."""

    def __init__(self, dev: Device, view: bool):
        self.dev = dev
        self.view = view
        self.buffers = []

    def shared(self, host: np.ndarray):
        d = self.dev.to_device(host)
        self.buffers.append(d)
        return d

    def rows(self, host: np.ndarray):
        """A per-thread operand: ``T`` rows, whole or a view at ``LO``."""
        if not self.view:
            return self.shared(host)
        rng = np.random.default_rng(host.shape[0] + host.ndim)
        pad = (rng.standard_normal((LO + TAIL, *host.shape[1:])) * 7).astype(
            host.dtype
        )
        base = self.shared(np.concatenate([pad[:LO], host, pad[LO:]]))
        return base.view_rows(LO, LO + host.shape[0])


def _kernel_args(name: str, ops: _Operands) -> tuple:
    """Host data for one kernel (fixed per name) → launch arguments."""
    rng = np.random.default_rng(sum(map(ord, name)))
    V = rng.standard_normal((T, D))
    C = rng.standard_normal((K, D))
    labels = rng.integers(0, K, T)
    if name == "compute_norms":
        return gpu.compute_norms, ops.rows(V), ops.rows(np.zeros(T))
    if name == "init_distances":
        return (gpu.init_distances, ops.rows(np.zeros((T, K))),
                ops.rows(rng.random(T)), ops.shared(rng.random(K)))
    if name == "argmin_rows":
        S = rng.standard_normal((T, K))
        S[4, :2] = S[4, 0]  # a tie: argmin keeps the first
        return gpu.argmin_rows, ops.rows(S), ops.rows(np.full(T, -1))
    if name == "direct_distances":
        return (gpu.direct_distances, ops.rows(V), ops.shared(C),
                ops.rows(np.zeros((T, K))))
    if name == "fused_assign":
        reset = not ops.view
        return (gpu.fused_assign, ops.rows(np.zeros((T, K))), ops.rows(V),
                ops.shared(C), ops.rows(np.einsum("nd,nd->n", V, V)),
                ops.shared(np.einsum("kd,kd->k", C, C)),
                ops.rows(np.full(T, -1)), ops.rows(labels),
                ops.shared(np.array([5])), reset)
    if name == "label_histogram":
        return (gpu.label_histogram, ops.rows(labels),
                ops.shared(np.full(K + 1, 9)))
    if name == "membership_scatter":
        counts = np.bincount(labels, minlength=K)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return (gpu.membership_scatter, ops.rows(labels),
                ops.shared(indptr), ops.rows(np.full(T, -1)))
    if name == "tile_inertia":
        return (gpu.tile_inertia, ops.rows(V), ops.shared(C),
                ops.rows(labels), ops.shared(np.zeros(4)), 2)
    if name == "compute_average":
        return build.compute_average, ops.rows(V), ops.rows(np.zeros(T))
    if name == "update_data":
        return (build.update_data, ops.rows(V), ops.rows(rng.standard_normal(T)),
                ops.rows(np.zeros(T)))
    # edge kernels: one thread per edge over a shared point set
    X = rng.standard_normal((N_POINTS, D))
    src = rng.integers(0, N_POINTS, T)
    dst = rng.integers(0, N_POINTS, T)
    if name == "compute_similarity":
        norm = np.sqrt(np.einsum("nd,nd->n", X, X))
        norm[src[[2, 11]]] = 0.0  # zero-norm endpoints take the masked branch
        return (build.compute_similarity, ops.shared(X), ops.shared(norm),
                ops.rows(src), ops.rows(dst), ops.rows(np.full(T, -1.0)))
    if name == "ScaleElements":
        return (scale_elements, ops.rows(src), ops.rows(rng.random(T)),
                ops.shared(rng.random(N_POINTS)))
    if name == "ScaleElementsSym":
        return (scale_elements_sym, ops.rows(src), ops.rows(dst),
                ops.rows(rng.random(T)), ops.shared(rng.random(N_POINTS)))
    raise KeyError(name)


KERNELS = (
    "compute_norms", "init_distances", "argmin_rows", "direct_distances",
    "fused_assign", "label_histogram", "membership_scatter", "tile_inertia",
    "compute_average", "update_data", "compute_similarity",
    "ScaleElements", "ScaleElementsSym",
)


def _run_kernel(name: str, view: bool):
    """One kernel cell: ``([buffer sha256], [(name, duration)], launches)``."""
    dev = Device()
    ops = _Operands(dev, view)
    k, *args = _kernel_args(name, ops)
    assert k.name == name
    n0, l0 = len(dev.timeline), dev.kernel_launches
    launch(k, grid_1d(T, BLOCK), *args, n_threads=T)
    return (
        [_digest(b.data) for b in ops.buffers],
        [(ev.name, ev.duration) for ev in dev.timeline.events[n0:]],
        dev.kernel_launches - l0,
    )


def _run_kmeans(update: str, fused: bool, tile_rows: int | None):
    """One Algorithm 4 cell: result bytes, launch count, timeline digest."""
    r = np.random.default_rng(100)
    V = r.random((123, 4))
    k = 6
    C0 = kmeans_plus_plus(V, k, np.random.default_rng(0))
    dev = Device()
    res = kmeans_device(
        dev, V, k, initial_centroids=C0, centroid_update=update,
        fused=fused, tile_rows=tile_rows, max_iter=60,
    )
    events = repr([(ev.name, ev.duration) for ev in dev.timeline.events])
    return (
        _digest(res.labels),
        _digest(res.centroids),
        _digest(np.asarray(res.inertia_history)),
        res.n_iter,
        dev.kernel_launches,
        hashlib.sha256(events.encode()).hexdigest(),
    )


def _kernel_cells():
    for name in KERNELS:
        for where in ("whole", "view"):
            yield f"{name}-{where}"


def _kmeans_cells():
    for update, fused in KNOB_GRID:
        for tile_rows in (None, 17):
            yield f"kmeans-{update}-{'fused' if fused else 'discrete'}-{tile_rows}"


#: frozen at the commit before kernel bodies received a slice of threads
EXPECTED: dict = {'ScaleElements-view': (['c5116e1160b50d38661fcce73a5aa163e31c9c4a443157a7f76ef94841089076',
                                         'aa17704735a9280e08c7365b96e83901225d2250cdfbfd2c15667476ba9f25d0',
                                         '600a315817f311c6976c41e156edc03cf9768fcb72e0e814ac94e343fe00103a'],
                                        [('ScaleElements', 8.013384615384615e-06)],
                                        1),
                 'ScaleElements-whole': (['c157c859ccebc7af17c92edd420ddb9fe007602580b81af92440285200f3a346',
                                          'a053bdd44a84a89f9cd04d81588260b5e3a0321d99fd092362e11f0fde996b9e',
                                          '600a315817f311c6976c41e156edc03cf9768fcb72e0e814ac94e343fe00103a'],
                                         [('ScaleElements', 8.013384615384615e-06)],
                                         1),
                 'ScaleElementsSym-view': (['98e06b5bf528abf27ee227f39ab7db1986cd31d0c6003b8fe102ae55aac75f72',
                                            'f2d6c3ab3944a2e4b70f1fe6c18e7fd72fee78a38acfe2b414fa372cc3acece5',
                                            '93f2992b3441b87142564c1b2291a669850c734e70ef3003cab782c0af61fcad',
                                            '0d6127a16f9b0b5958211a5306f0476386d22f339ff4928d73438c2abbc44a6a'],
                                           [('ScaleElementsSym', 8.017846153846154e-06)],
                                           1),
                 'ScaleElementsSym-whole': (['27442ed4f0e390b4e00be82cbd67f725e8cc8196167a49f273feb80ebdab9796',
                                             'e1c9579bc435f32dc047c4ffd1ff1caea9f4ae1034b52d7e51219a155c59efa5',
                                             'c3f2988fb99946e4eea315e0dd6ca694ec3a79edf3b29502d94c19c77fade98f',
                                             '0d6127a16f9b0b5958211a5306f0476386d22f339ff4928d73438c2abbc44a6a'],
                                            [('ScaleElementsSym', 8.017846153846154e-06)],
                                            1),
                 'argmin_rows-view': (['507bf63961dde34a4e9a61ddf191564bbb0e974e24f890ced32dee457d1402cf',
                                       '60f45597641754b8e1bd460d8e7a3fecff56a9b3b2eb877dfbe4ccfb6042d263'],
                                      [('argmin_rows', 8.008923076923077e-06)],
                                      1),
                 'argmin_rows-whole': (['b9c939c5b25b732a40b4a4778ebe6eb051d0b272ddb1e2903fd773b9ab42ace2',
                                        '85145639f3e8df2148f81199bc910c0fcc622ab59487c811fc1c8819cca02eab'],
                                       [('argmin_rows', 8.008923076923077e-06)],
                                       1),
                 'compute_average-view': (['ae266c2561ad144dd15b130d274459b8a6f8edcf863d1b4bb94097831e41a980',
                                           '7681b9c0e5da28341e7bc89e88e071b6aa1682936ffe3969079c8bf3eaf6214c'],
                                          [('compute_average', 8.007435897435897e-06)],
                                          1),
                 'compute_average-whole': (['56089ad14b03ad6a9ca159eef23050426ac4b7eaa693dfa80687ea6e35a185f0',
                                            '2f244cf7d31c38f0f413975d0d78e6e8d49ab56d8085103fe0c60a508811482a'],
                                           [('compute_average', 8.007435897435897e-06)],
                                           1),
                 'compute_norms-view': (['1259accd717f202e7281e20494fa40afac3325be1cde97ca1e65af812e45d0b2',
                                         '75d64cf832a19092412808181f492859b1e0e96e2b00e5fb24ff2d8ad71c983d'],
                                        [('compute_norms', 8.007435897435897e-06)],
                                        1),
                 'compute_norms-whole': (['203d41ed83bee1170eb7c2ea080edae1ad5dd7fa8f6bfb59ca1f6528b568e04f',
                                          'd6ea6b410e49fff3897578c3f03f4d436324970861bc0f581d22a78ca471f166'],
                                         [('compute_norms', 8.007435897435897e-06)],
                                         1),
                 'compute_similarity-view': (['4a0b37f212f37237f583ffa0f495ca6dfadd3018dfadd05ad8245572f187cffc',
                                              '1a80c3aee56942e46ec4fd62fdb0a936aa17d3bc177be87af66d0b18305302a7',
                                              '4d276b6d875ad2ccb6ff83c3bc427381e1a19dfb64767ed70269335ebbc0b400',
                                              '18c97d63dc69ab5917a8a6feedeb544055542fb88f2ca3b39778c63fb5ed7306',
                                              '5d998f69735f651c5b5ea3cf5594ee8edb6bcd61c853b2b72b6e5a6559520bc7'],
                                             [('compute_similarity', 8.016358974358974e-06)],
                                             1),
                 'compute_similarity-whole': (['4a0b37f212f37237f583ffa0f495ca6dfadd3018dfadd05ad8245572f187cffc',
                                               '1a80c3aee56942e46ec4fd62fdb0a936aa17d3bc177be87af66d0b18305302a7',
                                               '3e5b6a27c59b795e62116a3d4b813dc1ce14d044e5d69af91b16ffb4727a1a24',
                                               '60b1e35f12daadd839b7f4cd9644281cb704a52025117de16690f343b8d6254f',
                                               '8350242a489e60bb69a06d6e8a03358d7d1b0416befdaf199fa68ddfb026879b'],
                                              [('compute_similarity', 8.016358974358974e-06)],
                                              1),
                 'direct_distances-view': (['3a5e8a7f674ebd30f92a25c94e3b79c98f0b86ed2614a5ea5096d90697332f86',
                                            '532adda0ebe24fbc1a610f0246a54ab75208473757fc4e439f37cb1549b95f04',
                                            '9c0bfd6b51a2813030877d0887fdef889fd8074fa59690bbbd846e6106f2fb09'],
                                           [('direct_distances', 8.037179487179486e-06)],
                                           1),
                 'direct_distances-whole': (['4bd70c3c6d373ab0ff48a64a2898c53c75c4e5dfa5824dad438eee09d7095715',
                                             '532adda0ebe24fbc1a610f0246a54ab75208473757fc4e439f37cb1549b95f04',
                                             'e3cdd5e2cbd9dc043c7d32e9d737e01cbbcba69299381b68e365367d8a381a33'],
                                            [('direct_distances', 8.037179487179486e-06)],
                                            1),
                 'fused_assign-view': (['51089eabb4668d14db432bb5575f83df5730624e9ce0aa1ce9434bf23fdaf9c2',
                                        '645bf0b11c9d0b0fb8f531edb4fc1aff23f8ec8011791bbe26149396643d4694',
                                        'ad4b5942de819f74ef1172ae8926765b80f881fa9411deed020ed82a14ab975b',
                                        'ccf2a39e62c3754d3a8ce8df0e0796a6e5a34ed015876282c60c4a87ea641030',
                                        '828464a33bd5a8548e4d791009ebc96f77346b1f925eec0a37a4e6bc56b37e78',
                                        '9ab33990c888fa3261d193884745d0007bac464fe70cbd3159c6d2c364cbfd2a',
                                        '8c3095be341410cee9b64b1e3e8d21b11cb65bf8ef47c6b0a3ea04ae1ef5acb2',
                                        'a58ef186444f7672cb8a20a5ca7e2a16e6dcb021619eb833a702846e14d69eab'],
                                       [('fused_assign', 8.014384615384615e-06)],
                                       1),
                 'fused_assign-whole': (['6bdeca5e36437db634d4d788dd8cc87e8049f23c2b1f24eb9c83c212153c1471',
                                         'c44eeac263ea3d272231c5f604d18b3125cc579674295cf9bb612daa877aadb5',
                                         'ad4b5942de819f74ef1172ae8926765b80f881fa9411deed020ed82a14ab975b',
                                         'b53381355af31c027c3e9e6e7f253018769908468093cf93cdbbaf4e83272283',
                                         '828464a33bd5a8548e4d791009ebc96f77346b1f925eec0a37a4e6bc56b37e78',
                                         '27a98a0111657a232ee724478cfded80f144c4f86300a033b4f44f41053c31cc',
                                         'adf9a816bf5342be9fb0e17714cfe91fc8c3fdd299e34bc2c99323199f07b71f',
                                         '6606a72148c52c6baee65608f731a3a4bac1fd2eaa1d8341b8250e07cc4aef69'],
                                        [('fused_assign', 8.014384615384615e-06)],
                                        1),
                 'init_distances-view': (['762a98c3120ecfff2e2c18659c104829e7d74ae60b95507b63908f6e93b7270f',
                                          '4c78a44158a2b1da1e858f74c0eea5a545f9466017c323779af084b52bab312c',
                                          '5176adb03bb77085e851ee5839c2d36fc26eb2b901cf818adfde0abd3ff61f46'],
                                         [('init_distances', 8.009179487179487e-06)],
                                         1),
                 'init_distances-whole': (['29a6fa5ab31264f7489735f2a3f6bf04173682f9bf49a7947980096b2ba5258a',
                                           '2c07167ad68adea7c1ee4190f3b479ed259cbeb1379d751f47adaa9398c737de',
                                           '5176adb03bb77085e851ee5839c2d36fc26eb2b901cf818adfde0abd3ff61f46'],
                                          [('init_distances', 8.009179487179487e-06)],
                                          1),
                 'kmeans-sort-discrete-17': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                             'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                             'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                             8,
                                             258,
                                             '525a75c5f673c381316ce3d9f99c93fe9ebf6f97399447c464416e81e0eaea6c'),
                 'kmeans-sort-discrete-None': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                               'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                               'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                               8,
                                               90,
                                               '080a4c5e1cfd7edb447d379788d127a22a3e417648fb68c4d13f49f86667720f'),
                 'kmeans-sort-fused-17': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                          'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                          'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                          8,
                                          138,
                                          'b95541eb14e1edabeac8e42221f797a6384745dfce4016dba547626a437be50d'),
                 'kmeans-sort-fused-None': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                            'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                            'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                            8,
                                            82,
                                            '124176a37e0b67dd20d989214bc8cbe59fd009829ed41ab40f8631d97366aedb'),
                 'kmeans-spmm-discrete-17': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                             'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                             'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                             8,
                                             251,
                                             '729a64f6fe171285b887eba193782e27062d2ab816a87c10c818c580d27f1cd3'),
                 'kmeans-spmm-discrete-None': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                               'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                               'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                               8,
                                               83,
                                               '226afad62a4f3edc3656556dd870025a2135c4e2682d71ec3d17d6ac69b9d2fd'),
                 'kmeans-spmm-fused-17': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                          'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                          'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                          8,
                                          131,
                                          '125cc3db8b2cd89eb4801489c0a398faf29f2d577975ba721dceed5dddf7ab1b'),
                 'kmeans-spmm-fused-None': ('2b6da1394b0fe980dbd1cdff55d05cca3909473a65c424c4b54afb43e41c33c2',
                                            'b2606fd64a0f7ac8c4cf923122c22d02b28726a3671a53ed738d75ad67ce964f',
                                            'fbe0e805e8561a8b1e74f38de0df02dbc9b5f02ff862e82d313a5e48c523278f',
                                            8,
                                            75,
                                            'aced44b333ff510423632f1b38bb3d0a3132f50897bcd487387d65bdb705dbd1'),
                 'label_histogram-view': (['5f1d7297349a789acc19f5cb15c379693757fffb82432f32adacf179fc8b750f',
                                           '2075f142abea81e215eeb1a3c2dc69797efc6e047966294632c5b16edbf33816'],
                                          [('label_histogram', 8.006307692307693e-06)],
                                          1),
                 'label_histogram-whole': (['7069d146367da69bb6b3bbd930d05d857416e2db1015f811801398de83e20cf6',
                                            '2075f142abea81e215eeb1a3c2dc69797efc6e047966294632c5b16edbf33816'],
                                           [('label_histogram', 8.006307692307693e-06)],
                                           1),
                 'membership_scatter-view': (['998087565edca75f2ef44706eb9e96459cd2188b0ef49cc4b7ae64fa246c4ea9',
                                              'c1bb84e38ece14a80cdde07fb7647f3fde1dc3238abc3f2f48d2b1a84c804cbf',
                                              'df43af51ca63c6e289d81d8e18658a6b94229c6ef7df526e28781a44afb58a96'],
                                             [('membership_scatter', 8.009846153846154e-06)],
                                             1),
                 'membership_scatter-whole': (['86cc932c6bdf3a3dbf1902e454874f8f89fbcab97988a40205f72b321f6903a1',
                                               'c1bb84e38ece14a80cdde07fb7647f3fde1dc3238abc3f2f48d2b1a84c804cbf',
                                               '1224370a89e0cc26e8261f46c70b00ac67071bb85b226c608ee22474c40b8b7a'],
                                              [('membership_scatter', 8.009846153846154e-06)],
                                              1),
                 'tile_inertia-view': (['c86593430968a6a55e1b23af9dda790be8eea0997266dd526b4d94ffb10276ac',
                                        'c8c80d44525d3d163f6a41e45652e5395b28da70a62c2516b36eff85ed47cc3f',
                                        '8e577d0c51c8a58be6213c06385ebf565299a8702688de6d00037705d11a1fd3',
                                        '4d02ae9b74751a9637a9af958d0063c2ed141b4d0be1cc706c8d978f488df44b'],
                                       [('tile_inertia', 8.00851282051282e-06)],
                                       1),
                 'tile_inertia-whole': (['e2b90b2226e89849b12922fc670cfa97dfe8f3c6300dc3d60fb6df83176370f0',
                                         'c8c80d44525d3d163f6a41e45652e5395b28da70a62c2516b36eff85ed47cc3f',
                                         '2bdccfd5fc10be6ace28c9f3734a0d1e4bd74acc98052a9819202a9160163be1',
                                         '4d02ae9b74751a9637a9af958d0063c2ed141b4d0be1cc706c8d978f488df44b'],
                                        [('tile_inertia', 8.00851282051282e-06)],
                                        1),
                 'update_data-view': (['bffeda61c9bac5d955cbbf838227e127201661342e80cf8b0c83ab6edd7cd0b3',
                                       'fe2e1e7fa5480483437b2e5628468fce135318c50a090cf5917c2576f7e14c16',
                                       '00b2542bf90b41bc77f6c673be666882ba022ddfdb87b62e70d3e67d819a6eac'],
                                      [('update_data', 8.014871794871795e-06)],
                                      1),
                 'update_data-whole': (['c4b7c1f510a4163a4e7c5506eca1aeef26d617a5b5497286125dc0c93f91087a',
                                        'a6ecb0f62310a9b230d562ed2231a6b8692281f1bbe4872265f6be722f6a661b',
                                        'c2841db891249f406031cbe8043688ad011a157f2064338296aec3efc2f30cf5'],
                                       [('update_data', 8.014871794871795e-06)],
                                       1)}


@pytest.mark.parametrize("cell", list(_kernel_cells()))
def test_kernel_parity(cell):
    name, where = cell.split("-")
    assert _run_kernel(name, where == "view") == EXPECTED[cell]


@pytest.mark.parametrize("cell", list(_kmeans_cells()))
def test_kmeans_parity(cell):
    _, update, mode, tile = cell.split("-")
    tile_rows = None if tile == "None" else int(tile)
    assert _run_kmeans(update, mode == "fused", tile_rows) == EXPECTED[cell]
