"""Exception types raised by validators, parsers and constructions."""


class CqlError(Exception):
    """Base class for all package errors."""


# -- order / lattice validation ------------------------------------------

class NotAPartialOrder(CqlError):
    pass


class NotALattice(CqlError):
    pass


class NoBoundedness(CqlError):
    pass


# -- co-quantale validation ----------------------------------------------

class NotCommutative(CqlError):
    pass


class NotAssociative(CqlError):
    pass


class BadIdentity(CqlError):
    pass


class NotMeetDistributive(CqlError):
    pass


class NotValueCoquantale(CqlError):
    """An operation that requires a value co-quantale got a plain one."""


class NoWitness(CqlError):
    """The epsilon argument theorems guarantee a witness; none was found.

    Reaching this means the instance violates the value co-quantale axioms,
    i.e. an internal validation bug rather than a user error.
    """


class UnknownBuiltin(CqlError):
    pass


class SizeLimit(CqlError):
    pass


# -- continuity spaces ------------------------------------------------------

class ReflexivityViolation(CqlError):
    pass


class TransitivityViolation(CqlError):
    pass


class NotPositive(CqlError):
    pass


class NotAPreorder(CqlError):
    pass


class NotATopology(CqlError):
    pass


class NoMeets(CqlError):
    """The carrier has no meets: the principal down-sets of a free locale."""


# -- formulas ----------------------------------------------------------------

class FormulaSyntaxError(CqlError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownSymbol(CqlError):
    pass


class ArityMismatch(CqlError):
    pass


class UnknownElement(CqlError):
    pass


class ModulusViolated(CqlError):
    pass


# -- semantics ----------------------------------------------------------------

class MissingInterpretation(CqlError):
    pass


class UnboundVariable(CqlError):
    pass


class FreeVariableMismatch(CqlError):
    pass


class SignatureMismatch(CqlError):
    pass


class NotSubstructure(CqlError):
    pass


class NotCoGirard(CqlError):
    pass


# -- ultraproducts -------------------------------------------------------------

class NotT0(CqlError):
    pass


class NoLimit(CqlError):
    """No D-ultralimit found; existence is guaranteed, so this is a bug."""


class NotSymmetricFactors(CqlError):
    pass


class NotCoDivisible(CqlError):
    pass


class NotFinitelySatisfiable(CqlError):
    pass


class VerificationFailed(CqlError):
    pass


# -- text formats ---------------------------------------------------------------

class ParseError(CqlError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
