import numpy as np
import pytest

from diamramsey import ColoredConfiguration, Configuration, DomainError, regular_simplex
from diamramsey.formats import (
    colored_from_dict,
    colored_to_dict,
    configuration_from_csv,
    configuration_from_json,
    configuration_to_csv,
    configuration_to_json,
    load_configuration,
    save_configuration,
)


class TestJsonRoundTrip:
    def test_round_trip(self):
        config = regular_simplex(3)
        back = configuration_from_json(configuration_to_json(config))
        assert back.dim == 3
        assert np.array_equal(back.points, config.points)

    def test_explicit_schema(self):
        config = configuration_from_json('{"dim": 2, "points": [[1, 2], [3, 4]]}')
        assert config.dim == 2 and len(config) == 2

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_json('{"dim": 2, "points": [[1, 2], [3]]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_json("not json")

    def test_missing_points_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_json('{"dim": 2}')


    @pytest.mark.parametrize("dim", ['"abc"', "null", "2.7", "2.0", "true"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(DomainError):
            configuration_from_json(f'{{"dim": {dim}, "points": [[1, 2], [3, 4]]}}')

    @pytest.mark.parametrize("point", ['["a", 2]', "[true, 2]", "[null, 2]", "[[1], 2]",
                                       "[1e999, 2]", "[1" + "0" * 400 + ", 2]"],
                             ids=["string", "bool", "null", "list", "inf", "huge-int"])
    def test_non_numeric_coordinate_rejected(self, point):
        with pytest.raises(DomainError):
            configuration_from_json(f'{{"points": [{point}, [3, 4]]}}')

    def test_integer_coordinates_accepted(self):
        config = configuration_from_json('{"points": [[1, 2], [3.5, 4]]}')
        assert config.dim == 2 and config.points.dtype == float


class TestCsvRoundTrip:
    def test_round_trip(self):
        config = regular_simplex(2)
        back = configuration_from_csv(configuration_to_csv(config))
        assert np.array_equal(back.points, config.points)

    def test_no_header_plain_rows(self):
        config = configuration_from_csv("0.0,0.0\n1.0,0.0\n0.5,0.25\n")
        assert config.dim == 2 and len(config) == 3

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_csv("1,2\n3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_csv("1,foo\n")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            configuration_from_csv("\n\n")


class TestColored:
    def test_round_trip(self):
        config = Configuration.from_points([[0.0, 0.0], [1.0, 0.0]])
        colored = ColoredConfiguration(configuration=config, colors=(0, 3))
        data = colored_to_dict(colored)
        assert data["colors"] == [0, 3]
        back = colored_from_dict(data)
        assert back.colors == (0, 3)

    def test_colors_required(self):
        with pytest.raises(DomainError):
            colored_from_dict({"dim": 1, "points": [[0.0]]})

    @pytest.mark.parametrize("colors", [[0.5, 0], [1.0, 0], [-1, 0], [True, 0],
                                        [None, 0], ["0", 0], 5, "ab", None])
    def test_non_integer_colours_rejected(self, colors):
        with pytest.raises(DomainError):
            colored_from_dict({"points": [[0.0], [1.0]], "colors": colors})

    def test_numpy_integer_colours_accepted(self):
        config = Configuration.from_points([[0.0], [1.0]])
        colored = ColoredConfiguration(configuration=config, colors=np.array([2, 0]))
        assert colored.colors == (2, 0) and type(colored.colors[0]) is int


class TestFiles:
    def test_save_and_load(self, tmp_path):
        config = regular_simplex(2)
        json_path = tmp_path / "tri.json"
        csv_path = tmp_path / "tri.csv"
        save_configuration(config, str(json_path), "json")
        save_configuration(config, str(csv_path), "csv")
        assert np.array_equal(load_configuration(str(json_path), "json").points,
                              config.points)
        assert np.array_equal(load_configuration(str(csv_path), "csv").points,
                              config.points)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            save_configuration(regular_simplex(2), str(tmp_path / "x"), "xml")
