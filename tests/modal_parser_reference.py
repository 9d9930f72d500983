"""Parser for the modal surface syntax that `formula.print_formula` writes.

The package has no reader for `[j]phi` and `all k>=j in P. phi`; the
tests use this one as the round-trip oracle for the printer's modal
output.  It extends the plain parser with the two modal forms.
"""

from nucforce.formula import Formula, GuardAll, Mod, Parser


class MParser(Parser):
    """Parser for the modal surface syntax; round-trips print_formula."""

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "[":
            self.take("[")
            nvar = self.variable()
            self.take("]")
            return Mod(nvar, self.nested(self.unary))
        if tok == "all":
            self.take("all")
            kvar = self.variable()
            self.take(">=")
            above = self.variable()
            self.take("in")
            frame = self.frame_name()
            self.take(".")
            return GuardAll(kvar, frame, above, self.nested(self.formula))
        return super().unary()

    def frame_name(self) -> str:
        tok = self.peek()
        if tok is None or not tok[0].isalpha():
            self.fail(f"expected a frame name, found {tok!r}")
        return self.take()


def parse_mformula(text: str) -> Formula:
    return MParser(text).parse()
