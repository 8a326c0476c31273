"""Minimal static SVG line charts: axes, polyline, reference lines.

Self-contained SVG 1.1 (no external resources, no DTD reference) so files
validate as plain XML and render anywhere. Two chart shapes are needed:
a running-AUC-by-k line with a horizontal rule at the maximum, and an ROC
curve with the chance diagonal.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data.

    Local so that importing the CLI does not pull in xml.sax, which loads
    urllib, http, email and ssl.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    """Collects SVG elements inside a fixed plot frame."""

    def __init__(self, title: str, x_label: str, y_label: str,
                 x_range: tuple[float, float], y_range: tuple[float, float]):
        self.parts: list[str] = []
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">'
        )
        self.parts.append(
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
        )
        self.parts.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )
        self.parts.append(
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
        )
        self.parts.append(
            f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {HEIGHT / 2})">{_escape(y_label)}</text>'
        )
        # frame
        self.parts.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
            f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )

    def px(self, x: float) -> float:
        frac = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def ticks(self, xs: list[float], ys: list[float]) -> None:
        for x in xs:
            cx = self.px(x)
            self.parts.append(
                f'<line x1="{_fmt(cx)}" y1="{HEIGHT - MARGIN_B}" '
                f'x2="{_fmt(cx)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 18}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="11">{x:g}</text>'
            )
        for y in ys:
            cy = self.py(y)
            self.parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{_fmt(cy)}" '
                f'x2="{MARGIN_L}" y2="{_fmt(cy)}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{MARGIN_L - 8}" y="{_fmt(cy + 4)}" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="11">{y:g}</text>'
            )

    def polyline(self, xs, ys, color: str = "steelblue",
                 dashed: bool = False) -> None:
        pts = " ".join(
            f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys)
        )
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )

    def markers(self, xs, ys) -> None:
        for x, y in zip(xs, ys):
            self.parts.append(
                f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" '
                'r="3" fill="steelblue"/>'
            )

    def hline(self, y: float) -> None:
        cy = _fmt(self.py(y))
        self.parts.append(
            f'<line x1="{MARGIN_L}" y1="{cy}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{cy}" stroke="firebrick" stroke-width="1" '
            f'stroke-dasharray="4,3"/>'
        )

    def render(self) -> str:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            + "\n".join(self.parts)
            + "\n</svg>\n"
        )


def running_auc_chart(running_auc) -> str:
    """Line chart of running-total AUC by item count, with a horizontal
    rule marking the maximum reached."""
    ys = [float(v) for v in running_auc]
    xs = [float(k) for k in range(1, len(ys) + 1)]
    lo, hi = min(ys), max(ys)
    pad = max((hi - lo) * 0.1, 0.005)
    canvas = _Canvas("Running total AUC", "items in running total", "AUC",
                     (1.0, float(len(ys))), (lo - pad, hi + pad))
    step = max(1, len(xs) // 10)
    canvas.ticks([float(k) for k in range(1, len(xs) + 1, step)],
                 [round(lo, 3), round((lo + hi) / 2, 3), round(hi, 3)])
    canvas.hline(hi)
    canvas.polyline(xs, ys)
    canvas.markers(xs, ys)
    return canvas.render()


def roc_chart(fpr, tpr) -> str:
    """ROC polyline in the unit square with the chance diagonal."""
    canvas = _Canvas("ROC curve", "false positive rate", "true positive rate",
                     (0.0, 1.0), (0.0, 1.0))
    canvas.ticks([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0])
    canvas.polyline([0.0, 1.0], [0.0, 1.0], color="gray", dashed=True)
    canvas.polyline([float(x) for x in fpr], [float(y) for y in tpr])
    return canvas.render()


def points_csv(xs, ys) -> str:
    """Companion point file: header "x,y", full-precision values."""
    lines = ["x,y"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"
