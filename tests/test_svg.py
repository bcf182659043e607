from conconic import Conic, HPoint, Triangle, join
from conconic.cevians import build_config
from conconic.generate import feet_from_params
from conconic.svg import render_configuration


def test_line_pair_witness_uses_the_rendering_epsilon():
    # the singular point sits 1e-4 off the probe line x = 0: at eps = 1e-3 it
    # counts as on that probe, whose two meets with the pair then merge into
    # one, so the lines must be found from another probe
    tri = Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(0.0, 3.0, 1.0))
    cfg = build_config(tri, feet_from_params(tri, [0.3, 0.4, 0.5, 0.6, 0.7, 0.2]))
    s = HPoint(1e-4, 0.5, 1.0)
    pair = Conic.from_line_pair(join(s, HPoint(1.0, 1.0, 0.0)), join(s, HPoint(1.0, -2.0, 0.0)))
    for eps in (1e-9, 1e-3):
        assert pair.classify(eps) == "line_pair"
        assert render_configuration(cfg, (pair,), eps).count("stroke-dasharray") == 2
