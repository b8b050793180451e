"""Exception hierarchy shared by all transfid modules."""


class TransfidError(Exception):
    """Base class for all data-level errors raised by this package."""


# volume / file loading
class MalformedHeader(TransfidError):
    """File header is not a well-formed single-file NIfTI-1 3D image."""


class UnsupportedDatatype(TransfidError):
    """Voxel datatype outside the supported set."""


class NonFiniteVoxel(TransfidError):
    """Loaded volume contains NaN or infinite voxel values, or values whose
    range overflows float64."""


class DimsMismatch(TransfidError):
    """Two grids that must be aligned have different voxel counts."""


class EmptyMask(TransfidError):
    """A region of interest contains no voxels."""


# manifest
class ManifestError(TransfidError):
    """Base class for cohort manifest problems."""


class DuplicateEntry(ManifestError):
    """The same (patient, source) pair appears twice."""


class MissingOriginal(ManifestError):
    """A patient has no 'original_mri' source row."""


class MissingMask(ManifestError):
    """A patient has no 'mask' row."""


class MissingSynthetic(ManifestError):
    """A patient has no synthetic source row."""


# preprocessing
class CropLosesRoi(TransfidError):
    """Cropping removed every in-mask voxel."""


class InvalidScheme(TransfidError):
    """Discretization scheme parameters are out of range."""


# metrics
class VolumeTooSmall(TransfidError):
    """Volume smaller than the structural-similarity window."""


class UndefinedMetric(TransfidError):
    """A metric came out NaN, or MAE or MSE infinite: not a value to rank by."""


# statistics
class TooFewSamples(TransfidError):
    """Fewer paired samples than the test requires."""


# analysis
class CohortTooSmall(TransfidError):
    """Concordance needs at least two usable patients."""


class UnknownTopNetwork(TransfidError):
    """top_network is not one of the concordance's networks."""


class ConfigError(TransfidError):
    """Run configuration failed schema validation."""
