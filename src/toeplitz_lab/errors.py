"""Exception types shared across the library."""


class ToeplitzError(Exception):
    """Base class for all library errors."""


class UnknownCharacter(ToeplitzError):
    pass


class AllHoles(ToeplitzError):
    pass


class EndsWithHole(ToeplitzError):
    pass


class NoHoles(ToeplitzError):
    pass


class PatternTooLarge(ToeplitzError):
    pass


class DivisibilityViolation(ToeplitzError):
    pass


class UnresolvedWindow(ToeplitzError):
    pass


class UnresolvedElement(ToeplitzError):
    pass


class NotSingleHole(ToeplitzError):
    pass


class NotOxtoby(ToeplitzError):
    pass


class NotIsolated(ToeplitzError):
    pass


class UnknownLetters(ToeplitzError):
    pass


class BadParams(ToeplitzError):
    pass


class BadAlphabet(ToeplitzError):
    pass
