"""Two static SVG line charts: a running-AUC-by-k line with a horizontal
rule at the maximum, and an ROC curve with the chance diagonal.

Self-contained SVG 1.1 (no external resources, no DTD reference) so files
validate as plain XML and render anywhere. Both charts are drawn by one
function, _chart. Every title and axis label is a literal in this module,
so no text needs escaping.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _polyline(px, py, xs, ys, color="steelblue", dashed=False) -> str:
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>')


def _chart(labels, x_range, y_range, x_ticks, y_ticks, draw) -> str:
    """One chart page. labels is (title, x label, y label); the page,
    labels, plot frame and ticks come first, then the elements that
    draw(px, py) returns, where px and py map data to pixels."""
    title, x_label, y_label = labels
    (x0, x1), (y0, y1) = x_range, y_range
    if x1 == x0:  # a running chart of one item count
        x1 = x0 + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    bottom = HEIGHT - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return bottom - (y - y0) / (y1 - y0) * plot_h

    font = 'font-family="sans-serif" font-size='
    parts = [f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" \
height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">
<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>
<text x="{WIDTH / 2}" y="24" text-anchor="middle" {font}"16">{title}</text>
<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle" {font}"13">\
{x_label}</text>
<text x="18" y="{HEIGHT / 2}" text-anchor="middle" {font}"13" \
transform="rotate(-90 18 {HEIGHT / 2})">{y_label}</text>
<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" \
fill="none" stroke="black" stroke-width="1"/>"""]
    for x in x_ticks:
        cx = f"{px(x):.2f}"
        parts.append(f'<line x1="{cx}" y1="{bottom}" x2="{cx}" '
                     f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{cx}" y="{bottom + 18}" text-anchor="middle" '
                     f'{font}"11">{x:g}</text>')
    for y in y_ticks:
        cy = py(y)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{cy:.2f}" '
                     f'x2="{MARGIN_L}" y2="{cy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{cy + 4:.2f}" '
                     f'text-anchor="end" {font}"11">{y:g}</text>')
    parts += draw(px, py)
    return "\n".join(parts) + "\n</svg>\n"


def running_auc_chart(running_auc) -> str:
    """Line chart of running-total AUC by item count, with a horizontal
    rule marking the maximum reached."""
    ys = [float(v) for v in running_auc]
    xs = [float(k) for k in range(1, len(ys) + 1)]
    lo, hi = min(ys), max(ys)
    pad = max((hi - lo) * 0.1, 0.005)
    # lo, the midpoint and hi, once each where they round to one tick
    y_ticks = list(dict.fromkeys(round(y, 3) for y in (lo, (lo + hi) / 2, hi)))

    def draw(px, py):
        cy = f"{py(hi):.2f}"
        rule = (f'<line x1="{MARGIN_L}" y1="{cy}" x2="{WIDTH - MARGIN_R}" '
                f'y2="{cy}" stroke="firebrick" stroke-width="1" '
                f'stroke-dasharray="4,3"/>')
        return [rule, _polyline(px, py, xs, ys)] + [
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
            'fill="steelblue"/>' for x, y in zip(xs, ys)]

    return _chart(("Running total AUC", "items in running total", "AUC"),
                  (1.0, float(len(ys))), (lo - pad, hi + pad),
                  xs[::max(1, len(xs) // 10)], y_ticks, draw)


def roc_chart(fpr, tpr) -> str:
    """ROC polyline in the unit square with the chance diagonal."""
    ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
    return _chart(
        ("ROC curve", "false positive rate", "true positive rate"),
        (0.0, 1.0), (0.0, 1.0), ticks, ticks,
        lambda px, py: [
            _polyline(px, py, [0.0, 1.0], [0.0, 1.0], "gray", dashed=True),
            _polyline(px, py, [float(x) for x in fpr],
                      [float(y) for y in tpr])])


def points_csv(xs, ys) -> str:
    """Companion point file: header "x,y", full-precision values."""
    lines = ["x,y"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"
