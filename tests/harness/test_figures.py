"""Text-figure helper tests."""


class TestFigures:
    def test_sparkline_width_and_range(self):
        from repro.harness.figures import sparkline

        strip = sparkline([0, 1, 2, 3], width=8)
        assert len(strip) == 8
        assert strip[0] == " " and strip[-1] == "@"

    def test_sparkline_empty(self):
        from repro.harness.figures import sparkline

        assert sparkline([], width=5) == "     "

    def test_sparkline_pinned_scale(self):
        from repro.harness.figures import sparkline

        low = sparkline([1, 1], width=4, lo=0, hi=10)
        assert set(low) == {"."}

    def test_histogram(self):
        from repro.harness.figures import histogram

        text = histogram([1, 1, 2, 5], bins=2, title="H")
        assert text.startswith("H")
        assert "#" in text
