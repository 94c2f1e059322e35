"""Exception types shared across the package."""


class KconfexError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KconfexError):
    def __init__(self, message: str, line: int, column: int = 1, source: str = "<input>"):
        super().__init__(f"{source}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.source = source


class DuplicateOption(ParseError):
    pass


class EvalError(KconfexError):
    pass


class MissingVariable(KconfexError):
    def __init__(self, name: str):
        super().__init__(f"assignment does not cover variable {name!r}")
        self.name = name


class FormatError(KconfexError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class UnsupportedComparison(KconfexError):
    pass


class SelectOnNonBoolean(KconfexError):
    pass


class EmptyChoice(KconfexError):
    pass


class NonConvergence(KconfexError):
    def __init__(self, model_name: str, passes: int):
        super().__init__(f"{model_name}: value computation did not stabilize after {passes} passes")
        self.passes = passes


class ProcessError(KconfexError):
    pass


class TooManyOptions(KconfexError):
    def __init__(self, count: int, bound: int):
        super().__init__(f"model declares {count} options, enumeration bound is {bound}")
        self.count = count
        self.bound = bound
